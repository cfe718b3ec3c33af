// Remote worker transport: the HTTP client side of the cluster layer.
// RemoteNode makes a worker running behind internal/frontend look like
// any other Node to the Manager — invocations, batches, tenant-weight
// fan-out, and stats aggregation travel the frontend's wire protocol
// (internal/wire): batches in the length-prefixed binary framing once
// the worker proves it speaks it, JSON against binary-unaware workers
// (see docs/WIRE.md for the negotiation) — and Heartbeater is the loop a
// worker process runs to register with a coordinator and keep proving
// liveness. Together with the Tracker (heartbeat.go) they turn the
// in-process federation into a real multi-process deployment: N worker
// processes join one coordinator, which routes, detects failures, and
// evicts.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dandelion/internal/core"
	"dandelion/internal/memctx"
	"dandelion/internal/wire"
)

// ErrRemote wraps every transport-level failure of a remote worker
// call: connection refused, timeout, non-2xx status. Application errors
// a worker reports per request are returned verbatim, not wrapped.
var ErrRemote = errors.New("cluster: remote worker call failed")

// ErrBreakerOpen marks a call refused locally because the worker's
// circuit breaker is open. It is always wrapped in ErrRemote (a
// fast-fail is transport-shaped: the manager's reroute heuristic must
// fire on it), so test for it with errors.Is.
var ErrBreakerOpen = errors.New("cluster: circuit breaker open")

// tenantHeader mirrors the frontend's tenant header name without
// importing it (frontend imports cluster).
const tenantHeader = "X-Tenant"

// adminTokenHeader mirrors frontend.AdminTokenHeader.
const adminTokenHeader = "X-Admin-Token"

// deadlineHeader mirrors frontend.DeadlineHeader: the caller's
// remaining deadline budget in milliseconds, so a worker inherits the
// coordinator's deadline instead of running work nobody is waiting for.
const deadlineHeader = "X-Deadline-Ms"

// defaultRemoteTimeout bounds every remote call so a dead worker turns
// into a failed chunk (rerouted by the manager) instead of a hung one.
const defaultRemoteTimeout = 30 * time.Second

// Retry defaults (see RemoteOptions.MaxRetries / RetryBase).
const (
	defaultMaxRetries = 2
	defaultRetryBase  = 25 * time.Millisecond
)

// RemoteOptions parameterizes a RemoteNode beyond its base URL.
type RemoteOptions struct {
	// Client issues the HTTP requests; nil selects a client with a
	// 30-second timeout (a dead worker must fail fast enough for the
	// manager to reroute, so no-timeout default clients are deliberately
	// not used).
	Client *http.Client
	// Token is the admin token presented on control-plane calls
	// (SetTenantWeight's PUT /admin/tenants/); empty sends none.
	Token string
	// MaxRetries bounds in-place retries of transport failures (zero
	// selects 2; negative disables). Only idempotent requests retry:
	// GETs, PUTs, and invocations/batches where every request carries an
	// idempotency key — the worker's dedup table absorbs a re-execution,
	// the PR-8 semantics unkeyed work does not get. Each retry backs off
	// exponentially from RetryBase with ±50% jitter and respects the
	// caller's context deadline.
	MaxRetries int
	// RetryBase is the first backoff delay (zero selects 25ms); attempt
	// n waits RetryBase×2ⁿ⁻¹ jittered.
	RetryBase time.Duration
	// BreakerThreshold is how many consecutive transport failures trip
	// the per-worker circuit breaker open (zero selects 5; negative
	// disables the breaker). While open, calls fast-fail locally with
	// ErrBreakerOpen; after BreakerCooldown one probe is admitted.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic before
	// half-opening for a probe (zero selects 1s).
	BreakerCooldown time.Duration
	// Seed seeds the retry-jitter PRNG; zero seeds from the clock. Fixed
	// seeds make chaos tests reproducible.
	Seed int64
}

// RemoteNode is an HTTP client for one worker frontend, implementing
// Node, Admin, and BreakerNode against the worker's /invoke,
// /invoke-batch, /admin/tenants/{name}, and /stats routes. A Manager
// routes to it exactly as it routes to an in-process *core.Platform;
// transport failures surface as ErrRemote-wrapped per-request errors,
// which is what trips the manager's wholesale-failure reroute heuristic
// when a worker dies mid-batch.
type RemoteNode struct {
	base   string
	token  string
	client *http.Client

	// The retry budget (RemoteOptions.MaxRetries/RetryBase) and its
	// jitter PRNG; rngMu guards rng, which math/rand.Rand is not safe
	// for concurrent use without.
	maxRetries int
	retryBase  time.Duration
	rngMu      sync.Mutex
	rng        *rand.Rand

	// brk is the per-worker circuit breaker the transport chokepoints
	// feed (see breaker.go).
	brk *breaker

	// wireMode latches the negotiated batch framing: modeUnknown until
	// the first batch probes (JSON body, Accept offering the binary
	// type), then modeBinary against a frame-speaking worker or
	// modeJSON against a binary-unaware one. Probing this way means the
	// fallback costs nothing: an old worker never sees a body it would
	// reject, so there is no failed request to recover from.
	wireMode atomic.Int32

	// ctlErrs counts control-plane calls (SetTenantWeight) that failed
	// on the wire; Admin.SetTenantWeight has no error return, so the
	// counter is the only trace.
	ctlErrs atomic.Uint64

	// retries counts in-place retry attempts actually issued (not the
	// original attempts), surfaced per worker in /stats/cluster.
	retries atomic.Uint64
}

// Wire-mode states of the batch-framing negotiation.
const (
	modeUnknown int32 = iota
	modeBinary
	modeJSON
)

// WireMode reports the negotiated batch framing: "probing" before the
// first batch, then "binary" or "json".
func (rn *RemoteNode) WireMode() string {
	switch rn.wireMode.Load() {
	case modeBinary:
		return "binary"
	case modeJSON:
		return "json"
	}
	return "probing"
}

var remoteBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// NewRemoteNode builds a client for the worker frontend rooted at
// baseURL (e.g. "http://10.0.0.7:8080").
func NewRemoteNode(baseURL string, opts RemoteOptions) *RemoteNode {
	c := opts.Client
	if c == nil {
		c = &http.Client{Timeout: defaultRemoteTimeout}
	}
	maxRetries := opts.MaxRetries
	if maxRetries == 0 {
		maxRetries = defaultMaxRetries
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	retryBase := opts.RetryBase
	if retryBase <= 0 {
		retryBase = defaultRetryBase
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &RemoteNode{
		base:       strings.TrimRight(baseURL, "/"),
		token:      opts.Token,
		client:     c,
		maxRetries: maxRetries,
		retryBase:  retryBase,
		rng:        rand.New(rand.NewSource(seed)),
		brk:        newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, nil),
	}
}

// URL reports the worker base URL this node dials.
func (rn *RemoteNode) URL() string { return rn.base }

// ControlErrors reports how many control-plane fan-out calls failed on
// the wire.
func (rn *RemoteNode) ControlErrors() uint64 { return rn.ctlErrs.Load() }

// Retries reports in-place transport retries issued (BreakerNode).
func (rn *RemoteNode) Retries() uint64 { return rn.retries.Load() }

// BreakerState reports the worker breaker's routing-visible state
// (BreakerNode): "closed", "open", or "half-open".
func (rn *RemoteNode) BreakerState() string { return rn.brk.state() }

// BreakerCounters reports cumulative breaker trips and fast-fails
// (BreakerNode).
func (rn *RemoteNode) BreakerCounters() (trips, fastFails uint64) { return rn.brk.counters() }

// setDeadlineHeader carries the context's remaining budget to the
// worker as X-Deadline-Ms, clamped to ≥1ms (a zero or negative budget
// still travels as the smallest expressible one; the transport context
// will cancel the call anyway).
func setDeadlineHeader(req *http.Request, ctx context.Context) {
	if d, ok := ctx.Deadline(); ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(deadlineHeader, strconv.FormatInt(ms, 10))
	}
}

// backoff sleeps the jittered exponential delay before retry attempt n
// (1-based), honoring context cancellation. It reports false when the
// context is done or would expire before the sleep completes — no point
// retrying into a dead deadline.
func (rn *RemoteNode) backoff(ctx context.Context, attempt int) bool {
	d := rn.retryBase << (attempt - 1)
	// ±50% jitter, deterministic under RemoteOptions.Seed.
	rn.rngMu.Lock()
	d = d/2 + time.Duration(rn.rng.Int63n(int64(d)))
	rn.rngMu.Unlock()
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// do issues one request (with in-place retries when idempotent) and
// returns the response body for 2xx statuses; other statuses are
// decoded as the frontend's {"error": ...} body and returned as an
// error (ErrRemote-wrapped only when the failure is transport-shaped,
// i.e. not an application error the worker reported). Transport
// outcomes feed the circuit breaker; while it is open, calls fast-fail
// with ErrBreakerOpen.
func (rn *RemoteNode) do(ctx context.Context, method, path, tenant string, body []byte, idempotent bool) ([]byte, error) {
	var payload []byte
	var err error
	for attempt := 0; ; attempt++ {
		payload, err = rn.doOnce(ctx, method, path, tenant, body)
		if err == nil || !errors.Is(err, ErrRemote) {
			return payload, err
		}
		if !idempotent || attempt >= rn.maxRetries || !rn.backoff(ctx, attempt+1) {
			return payload, err
		}
		rn.retries.Add(1)
	}
}

func (rn *RemoteNode) doOnce(ctx context.Context, method, path, tenant string, body []byte) ([]byte, error) {
	if !rn.brk.allow() {
		return nil, fmt.Errorf("%w: %w: %s", ErrRemote, ErrBreakerOpen, rn.base)
	}
	req, err := http.NewRequestWithContext(ctx, method, rn.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	req.Header.Set("Content-Type", "application/json")
	setDeadlineHeader(req, ctx)
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	if rn.token != "" {
		req.Header.Set(adminTokenHeader, rn.token)
	}
	resp, err := rn.client.Do(req)
	if err != nil {
		rn.brk.failure()
		return nil, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		rn.brk.failure()
		return nil, fmt.Errorf("%w: reading response: %v", ErrRemote, err)
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &e) == nil && e.Error != "" {
			// The worker answered: this is an application-level
			// rejection (unknown composition, draining, bad weight),
			// not a transport failure.
			rn.brk.success()
			return nil, errors.New(e.Error)
		}
		rn.brk.failure()
		return nil, fmt.Errorf("%w: %s %s: status %d", ErrRemote, method, path, resp.StatusCode)
	}
	rn.brk.success()
	return payload, nil
}

// doStream issues one request with explicit framing headers and hands
// back the open response for streaming decode (the caller closes it).
// Non-2xx statuses are drained and mapped exactly as in do. body is a
// factory rather than a reader so idempotent requests can replay their
// payload on retry.
func (rn *RemoteNode) doStream(ctx context.Context, method, path, tenant string, body func() io.Reader, contentType, accept string, idempotent bool) (*http.Response, error) {
	var resp *http.Response
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = rn.doStreamOnce(ctx, method, path, tenant, body(), contentType, accept)
		if err == nil || !errors.Is(err, ErrRemote) {
			return resp, err
		}
		if !idempotent || attempt >= rn.maxRetries || !rn.backoff(ctx, attempt+1) {
			return resp, err
		}
		rn.retries.Add(1)
	}
}

func (rn *RemoteNode) doStreamOnce(ctx context.Context, method, path, tenant string, body io.Reader, contentType, accept string) (*http.Response, error) {
	if !rn.brk.allow() {
		return nil, fmt.Errorf("%w: %w: %s", ErrRemote, ErrBreakerOpen, rn.base)
	}
	req, err := http.NewRequestWithContext(ctx, method, rn.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	req.Header.Set("Content-Type", contentType)
	setDeadlineHeader(req, ctx)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	if rn.token != "" {
		req.Header.Set(adminTokenHeader, rn.token)
	}
	resp, err := rn.client.Do(req)
	if err != nil {
		rn.brk.failure()
		return nil, fmt.Errorf("%w: %v", ErrRemote, err)
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &e) == nil && e.Error != "" {
			rn.brk.success()
			return nil, errors.New(e.Error)
		}
		rn.brk.failure()
		return nil, fmt.Errorf("%w: %s %s: status %d", ErrRemote, method, path, resp.StatusCode)
	}
	rn.brk.success()
	return resp, nil
}

// Invoke routes one invocation to the worker's full-fidelity JSON invoke
// mode (every input set travels; the full output-set map comes back).
// The tenant rides the X-Tenant header, the context's remaining budget
// X-Deadline-Ms (cancelling ctx aborts the call), and the idempotency
// key the JSON body's key field (the same field the batch wire shape
// uses), so a re-send after a lost response is answered from the
// worker's completed-key dedup table instead of re-executing. Keyed
// invocations are retry-eligible for the same reason: a transport
// failure is retried in place before surfacing.
func (rn *RemoteNode) Invoke(ctx context.Context, req core.Request) (map[string][]memctx.Item, error) {
	body, err := json.Marshal(wire.BatchRequest{Inputs: wire.FromSets(req.Inputs), Key: req.Key})
	if err != nil {
		return nil, fmt.Errorf("%w: encoding request: %v", ErrRemote, err)
	}
	payload, err := rn.do(ctx, http.MethodPost, "/invoke/"+url.PathEscape(req.Composition), req.Tenant, body, req.Key != "")
	if err != nil {
		return nil, err
	}
	var res wire.BatchResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, fmt.Errorf("%w: decoding response: %v", ErrRemote, err)
	}
	if res.Error != "" {
		return nil, errors.New(res.Error)
	}
	return wire.ToSets(res.Outputs), nil
}

// InvokeBatch routes a batch to the worker's /invoke-batch route under
// the caller's context (see Invoke). Requests are grouped into maximal
// runs sharing one composition and tenant (one POST per run); each
// group fails or succeeds per request, and a transport failure errors
// every request of its group — the all-failed signature the manager's
// reroute heuristic keys on. Fully-keyed groups are retry-eligible in
// place.
func (rn *RemoteNode) InvokeBatch(ctx context.Context, reqs []core.Request) []core.Result {
	results := make([]core.Result, len(reqs))
	for lo := 0; lo < len(reqs); {
		hi := lo + 1
		for hi < len(reqs) && reqs[hi].Composition == reqs[lo].Composition && reqs[hi].Tenant == reqs[lo].Tenant {
			hi++
		}
		rn.invokeBatchGroup(ctx, reqs[lo:hi], results[lo:hi])
		lo = hi
	}
	return results
}

// invokeBatchGroup drives one uniform (composition, tenant) run in the
// negotiated framing: binary frames once the worker has proven it
// speaks them, JSON otherwise — and, while the mode is still unknown,
// a JSON body whose Accept header offers the binary type, so the
// worker's response Content-Type settles the mode without ever sending
// an old worker a body it would reject.
func (rn *RemoteNode) invokeBatchGroup(ctx context.Context, reqs []core.Request, results []core.Result) {
	fail := func(err error) {
		for i := range results {
			results[i] = core.Result{Err: err}
		}
	}
	path := "/invoke-batch/" + url.PathEscape(reqs[0].Composition)
	mode := rn.wireMode.Load()
	// A group is retry-eligible only when every request carries an
	// idempotency key (the worker's dedup absorbs re-execution).
	idempotent := fullyKeyed(reqs)

	buf := remoteBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		remoteBufPool.Put(buf)
	}()
	var contentType, accept string
	if mode == modeBinary {
		enc := wire.NewEncoder(buf)
		for _, r := range reqs {
			// Keyed requests ride the 'K' frame; unkeyed ones keep the
			// classic 'Q' frame, byte-identical to the pre-key protocol.
			if err := enc.EncodeKeyedRequest(r.Key, r.Inputs); err != nil {
				enc.Release()
				fail(fmt.Errorf("%w: encoding batch: %v", ErrRemote, err))
				return
			}
		}
		err := enc.EncodeEnd()
		enc.Release()
		if err != nil {
			fail(fmt.Errorf("%w: encoding batch: %v", ErrRemote, err))
			return
		}
		contentType = wire.ContentTypeBinary
	} else {
		wireReqs := make([]wire.BatchRequest, len(reqs))
		for i, r := range reqs {
			wireReqs[i] = wire.BatchRequest{Inputs: wire.FromSets(r.Inputs), Key: r.Key}
		}
		if err := json.NewEncoder(buf).Encode(wireReqs); err != nil {
			fail(fmt.Errorf("%w: encoding batch: %v", ErrRemote, err))
			return
		}
		contentType = wire.ContentTypeJSON
		if mode == modeUnknown {
			accept = wire.ContentTypeBinary
		}
	}

	// The body is handed to doStream as a factory over the encoded
	// bytes, so an in-place retry can replay the identical payload.
	resp, err := rn.doStream(ctx, http.MethodPost, path, reqs[0].Tenant,
		func() io.Reader { return bytes.NewReader(buf.Bytes()) }, contentType, accept, idempotent)
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()

	binaryResp := strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentTypeBinary)
	if mode == modeUnknown {
		// The probe's answer settles the mode for every later batch.
		if binaryResp {
			rn.wireMode.CompareAndSwap(modeUnknown, modeBinary)
		} else {
			rn.wireMode.CompareAndSwap(modeUnknown, modeJSON)
		}
	}

	if binaryResp {
		// Never Recycle here: decoded outputs escape upward through the
		// manager, so their buffers must outlive the decoder (they are
		// simply left to the garbage collector).
		dec := wire.NewDecoder(resp.Body)
		defer dec.Release()
		n := 0
		for {
			outputs, errMsg, err := dec.DecodeResult()
			if err == io.EOF {
				break
			}
			if err != nil {
				fail(fmt.Errorf("%w: decoding batch response: %v", ErrRemote, err))
				return
			}
			if n < len(results) {
				if errMsg != "" {
					results[n] = core.Result{Err: errors.New(errMsg)}
				} else {
					results[n] = core.Result{Outputs: outputs}
				}
			}
			n++
		}
		if n != len(reqs) {
			fail(fmt.Errorf("%w: bad batch response (%d results for %d requests)", ErrRemote, n, len(reqs)))
		}
		return
	}

	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(fmt.Errorf("%w: reading response: %v", ErrRemote, err))
		return
	}
	var wireRes []wire.BatchResult
	if err := json.Unmarshal(payload, &wireRes); err != nil || len(wireRes) != len(reqs) {
		fail(fmt.Errorf("%w: bad batch response (%d results for %d requests)", ErrRemote, len(wireRes), len(reqs)))
		return
	}
	for i, r := range wireRes {
		if r.Error != "" {
			results[i] = core.Result{Err: errors.New(r.Error)}
			continue
		}
		results[i] = core.Result{Outputs: wire.ToSets(r.Outputs)}
	}
}

// SetTenantWeight fans one tenant-weight update to the worker's admin
// surface. Admin.SetTenantWeight has no error return; wire failures
// are counted in ControlErrors.
func (rn *RemoteNode) SetTenantWeight(tenant string, weight int) {
	body, err := json.Marshal(map[string]int{"weight": weight})
	if err != nil {
		rn.ctlErrs.Add(1)
		return
	}
	// PUT is idempotent, so the retry budget applies.
	if _, err := rn.do(context.Background(), http.MethodPut, "/admin/tenants/"+url.PathEscape(tenant), "", body, true); err != nil {
		rn.ctlErrs.Add(1)
	}
}

// NodeStats fetches the worker's gauge snapshot from GET /stats, the
// remote Admin proxy that lets AggregateStats span machines.
func (rn *RemoteNode) NodeStats() (core.Stats, error) {
	payload, err := rn.do(context.Background(), http.MethodGet, "/stats", "", nil, true)
	if err != nil {
		return core.Stats{}, err
	}
	var st core.Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return core.Stats{}, fmt.Errorf("%w: decoding stats: %v", ErrRemote, err)
	}
	return st, nil
}

// Heartbeater is the worker-side membership loop: it joins a
// coordinator's cluster surface (POST /cluster/join) and then proves
// liveness every Interval (POST /cluster/heartbeat). Any beat failure —
// the coordinator restarted and forgot the worker, the worker was
// evicted after a network partition healed, a transient transport error
// — triggers a re-join attempt, so membership converges without
// operator intervention.
type Heartbeater struct {
	// Coordinator is the coordinator frontend's base URL.
	Coordinator string
	// Name is the worker name presented on join; the coordinator tracks
	// and reports the worker under it.
	Name string
	// SelfURL is the URL the coordinator dials this worker back on.
	SelfURL string
	// Token is the admin token, when the coordinator requires one on
	// its cluster surface.
	Token string
	// Interval is the beat period (default 1s). The coordinator evicts
	// after its configured number of missed beats, so the two sides
	// should agree on the interval.
	Interval time.Duration
	// Client issues the HTTP requests; nil selects a client whose
	// timeout is the beat interval (a beat slower than the interval is
	// as good as missed).
	Client *http.Client

	// lazyClient is the one default client constructed when Client is
	// nil — built once, under clientOnce, so every beat reuses its
	// connection pool instead of allocating a fresh client (and fresh
	// idle-connection state) per call.
	clientOnce sync.Once
	lazyClient *http.Client

	joins atomic.Uint64
	beats atomic.Uint64
}

// Joins reports successful join registrations (1 on a healthy run;
// more after coordinator restarts or evictions).
func (h *Heartbeater) Joins() uint64 { return h.joins.Load() }

// Beats reports successful heartbeats sent.
func (h *Heartbeater) Beats() uint64 { return h.beats.Load() }

func (h *Heartbeater) interval() time.Duration {
	if h.Interval > 0 {
		return h.Interval
	}
	return time.Second
}

func (h *Heartbeater) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	h.clientOnce.Do(func() {
		h.lazyClient = &http.Client{Timeout: h.interval()}
	})
	return h.lazyClient
}

// post sends one cluster-surface request and fails on any non-2xx.
func (h *Heartbeater) post(path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRemote, err)
	}
	req, err := http.NewRequest(http.MethodPost, strings.TrimRight(h.Coordinator, "/")+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRemote, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if h.Token != "" {
		req.Header.Set(adminTokenHeader, h.Token)
	}
	resp, err := h.client().Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRemote, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%w: POST %s: status %d", ErrRemote, path, resp.StatusCode)
	}
	return nil
}

// Join registers the worker with the coordinator once.
func (h *Heartbeater) Join() error {
	err := h.post("/cluster/join", wire.Join{Name: h.Name, URL: h.SelfURL})
	if err == nil {
		h.joins.Add(1)
	}
	return err
}

// Beat sends one heartbeat.
func (h *Heartbeater) Beat() error {
	err := h.post("/cluster/heartbeat", wire.Heartbeat{Name: h.Name})
	if err == nil {
		h.beats.Add(1)
	}
	return err
}

// Run joins the coordinator (retrying every interval until it answers)
// and then beats every interval until ctx is cancelled. A failed beat
// is followed by an immediate re-join attempt — the 404 a restarted or
// evicting coordinator answers is indistinguishable from any other
// failure at this level, and re-joining is idempotent.
func (h *Heartbeater) Run(ctx context.Context) {
	tick := time.NewTicker(h.interval())
	defer tick.Stop()
	for h.Join() != nil {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if h.Beat() != nil {
				h.Join()
			}
		}
	}
}

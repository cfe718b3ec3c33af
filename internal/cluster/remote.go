// Remote worker transport: the HTTP client side of the cluster layer.
// RemoteNode makes a worker running behind internal/frontend look like
// any other Node to the Manager — invocations and batches travel the
// worker's /invoke-batch/ route in the length-prefixed binary framing
// (internal/wire, docs/WIRE.md), the only framing this hop speaks, and
// tenant-weight fan-out and stats aggregation travel its JSON admin and
// stats routes — and Heartbeater is the loop a worker process runs to
// register with a coordinator and keep proving liveness. Together with
// the Tracker (heartbeat.go) they turn the in-process federation into a
// real multi-process deployment: N worker processes join one
// coordinator, which routes, detects failures, and evicts.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// call (connection refused, timeout, non-2xx status without an error
// body), keeping the transport cause in the chain: a lapsed deadline
// still satisfies core.IsTimeout. Application errors a worker reports
// are not wrapped: core.DecodeReason turns each back into the same
// error the worker saw.
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
	// BreakerThreshold is how many consecutive transport failures trip
	// the per-worker circuit breaker open (zero selects 5; negative
	// disables the breaker). While open, calls fast-fail locally with
	// ErrBreakerOpen; after BreakerCooldown one probe is admitted.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic before
	// half-opening for a probe (zero selects 1s).
	BreakerCooldown time.Duration
}

// RemoteNode is an HTTP client for one worker frontend, implementing
// Node, Admin, and BreakerNode against the worker's /invoke-batch,
// /admin/tenants/{name}, and /stats routes. A Manager routes to it
// exactly as it routes to an in-process *core.Platform; transport
// failures surface as ErrRemote-wrapped per-request errors, which is
// what trips the manager's wholesale-failure reroute heuristic when a
// worker dies mid-batch. A RemoteNode never retries: every call is one
// attempt, and the manager's keyed reroute is the one retry on the hop.
type RemoteNode struct {
	base   string
	token  string
	client *http.Client

	// brk is the per-worker circuit breaker the transport chokepoint
	// (doStream) feeds (see breaker.go).
	brk *breaker
}

var remoteBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// NewRemoteNode builds a client for the worker frontend rooted at
// baseURL (e.g. "http://10.0.0.7:8080").
func NewRemoteNode(baseURL string, opts RemoteOptions) *RemoteNode {
	c := opts.Client
	if c == nil {
		c = &http.Client{Timeout: defaultRemoteTimeout}
	}
	return &RemoteNode{
		base:   strings.TrimRight(baseURL, "/"),
		token:  opts.Token,
		client: c,
		brk:    newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, nil),
	}
}

// URL reports the worker base URL this node dials.
func (rn *RemoteNode) URL() string { return rn.base }

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

// do issues one JSON control-plane request (GET /stats, PUT
// /admin/tenants/) through doStream and reads the whole 2xx body.
func (rn *RemoteNode) do(method, path string, body []byte) ([]byte, error) {
	resp, err := rn.doStream(context.Background(), method, path, "", wire.ContentTypeJSON, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: reading response: %w", ErrRemote, err)
	}
	return payload, nil
}

// doStream is the transport chokepoint: it issues one request, once,
// and hands back the open 2xx response for the caller to decode and
// close. Any other status is drained and decoded as the frontend's
// {"error": ...} body, whose reason token core.DecodeReason turns back
// into the worker's error; only a transport-shaped failure is
// ErrRemote-wrapped. Transport outcomes feed the circuit breaker; while
// it is open, calls fast-fail with ErrBreakerOpen. A call that the
// caller's own context ended says nothing about the worker: it is not
// counted, and a half-open probe it cut short frees the probe slot.
func (rn *RemoteNode) doStream(ctx context.Context, method, path, tenant, contentType string, body []byte) (*http.Response, error) {
	ok, probe := rn.brk.allow()
	if !ok {
		return nil, fmt.Errorf("%w: %w: %s", ErrRemote, ErrBreakerOpen, rn.base)
	}
	req, err := http.NewRequestWithContext(ctx, method, rn.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRemote, err)
	}
	req.Header.Set("Content-Type", contentType)
	setDeadlineHeader(req, ctx)
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	if rn.token != "" {
		req.Header.Set(adminTokenHeader, rn.token)
	}
	resp, err := rn.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			rn.brk.failure()
		} else if probe {
			rn.brk.abandonProbe()
		}
		return nil, fmt.Errorf("%w: %w", ErrRemote, err)
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &e) == nil && e.Error != "" {
			// The worker answered: this is an application-level
			// rejection (unknown composition, draining, bad weight),
			// not a transport failure.
			rn.brk.success()
			return nil, core.DecodeReason(e.Error)
		}
		rn.brk.failure()
		return nil, fmt.Errorf("%w: %s %s: status %d", ErrRemote, method, path, resp.StatusCode)
	}
	rn.brk.success()
	return resp, nil
}

// Invoke routes one invocation as a one-record batch (see InvokeBatch):
// every input set travels, the full output-set map comes back, and the
// idempotency key rides the record's K frame, so a re-send after a lost
// response is answered from the worker's completed-key dedup table
// instead of re-executing.
func (rn *RemoteNode) Invoke(ctx context.Context, req core.Request) (map[string][]memctx.Item, error) {
	var res [1]core.Result
	rn.invokeBatchGroup(ctx, []core.Request{req}, res[:])
	return res[0].Outputs, res[0].Err
}

// InvokeBatch routes a batch to the worker's /invoke-batch route under
// the caller's context: the tenant rides the X-Tenant header, the
// context's remaining budget X-Deadline-Ms (cancelling ctx aborts the
// call). Requests are grouped into maximal runs sharing one composition
// and tenant (one POST per run); each group fails or succeeds per
// request, and a transport failure errors every request of its group —
// the all-failed signature the manager's reroute heuristic keys on.
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

// invokeBatchGroup drives one uniform (composition, tenant) run as one
// binary-framed POST /invoke-batch/. Keyed requests ride the K frame,
// unkeyed ones the Q frame; each E frame of the answer is decoded back
// into the worker's error by core.DecodeReason.
func (rn *RemoteNode) invokeBatchGroup(ctx context.Context, reqs []core.Request, results []core.Result) {
	fail := func(err error) {
		for i := range results {
			results[i] = core.Result{Err: err}
		}
	}
	buf := remoteBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		remoteBufPool.Put(buf)
	}()
	enc := wire.NewEncoder(buf)
	for _, r := range reqs {
		if err := enc.EncodeKeyedRequest(r.Key, r.Inputs); err != nil {
			enc.Release()
			fail(fmt.Errorf("%w: encoding batch: %w", ErrRemote, err))
			return
		}
	}
	err := enc.EncodeEnd()
	enc.Release()
	if err != nil {
		fail(fmt.Errorf("%w: encoding batch: %w", ErrRemote, err))
		return
	}

	resp, err := rn.doStream(ctx, http.MethodPost, "/invoke-batch/"+url.PathEscape(reqs[0].Composition),
		reqs[0].Tenant, wire.ContentTypeBinary, buf.Bytes())
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()

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
			fail(fmt.Errorf("%w: decoding batch response: %w", ErrRemote, err))
			return
		}
		if n < len(results) {
			if errMsg != "" {
				results[n] = core.Result{Err: core.DecodeReason(errMsg)}
			} else {
				results[n] = core.Result{Outputs: outputs}
			}
		}
		n++
	}
	if n != len(reqs) {
		fail(fmt.Errorf("%w: bad batch response (%d results for %d requests)", ErrRemote, n, len(reqs)))
	}
}

// SetTenantWeight fans one tenant-weight update to the worker's admin
// surface (Admin). Admin.SetTenantWeight has no error return; the
// manager calls setTenantWeight instead, so its count of workers that
// applied a weight leaves out the ones that failed.
func (rn *RemoteNode) SetTenantWeight(tenant string, weight int) { rn.setTenantWeight(tenant, weight) }

func (rn *RemoteNode) setTenantWeight(tenant string, weight int) error {
	body := []byte(`{"weight":` + strconv.Itoa(weight) + `}`)
	_, err := rn.do(http.MethodPut, "/admin/tenants/"+url.PathEscape(tenant), body)
	return err
}

// NodeStats fetches the worker's gauge snapshot from GET /stats, the
// remote Admin proxy that lets AggregateStats span machines.
func (rn *RemoteNode) NodeStats() (core.Stats, error) {
	payload, err := rn.do(http.MethodGet, "/stats", nil)
	if err != nil {
		return core.Stats{}, err
	}
	var st core.Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return core.Stats{}, fmt.Errorf("%w: decoding stats: %w", ErrRemote, err)
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
}

// Joins reports successful join registrations (1 on a healthy run;
// more after coordinator restarts or evictions).
func (h *Heartbeater) Joins() uint64 { return h.joins.Load() }

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
		return fmt.Errorf("%w: %w", ErrRemote, err)
	}
	req, err := http.NewRequest(http.MethodPost, strings.TrimRight(h.Coordinator, "/")+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %w", ErrRemote, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if h.Token != "" {
		req.Header.Set(adminTokenHeader, h.Token)
	}
	resp, err := h.client().Do(req)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrRemote, err)
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
	return h.post("/cluster/heartbeat", wire.Heartbeat{Name: h.Name})
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

// Package frontend implements the worker node's HTTP frontend (§5 of
// the paper): the component that manages client communication, handling
// composition/function registration and invocation requests, forwarding
// them to the dispatcher, and serializing results back to clients.
//
// The frontend also enables the paper's dynamic control flow (§4.1):
// since it is an ordinary HTTP service, a running composition can spawn
// further compositions by sending requests to the frontend through the
// HTTP communication function.
//
// Tenancy enters the system here. Every invocation route honors an
// X-Tenant request header naming the tenant the work is scheduled and
// accounted under; requests without one run as the default tenant. The
// batch route additionally runs each tenant's traffic through an
// admission window (internal/autoscale): a client-framed batch of any
// size is split into window-sized sub-batches before reaching
// Platform.InvokeBatch, so a single oversized body cannot monopolize
// the batched dispatch path.
//
// GET /stats serializes the platform's gauge snapshot (dandelion.Stats)
// as JSON, including the per-tenant scheduling gauges and the data-plane
// counters (ZeroCopyHandoffs / ZeroCopyHandoffBytes for context-boundary
// moves, CopiedSets / CopiedBytes for the dedup table's reply copies).
// The full field-by-field schema is documented in docs/STATS.md.
package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dandelion"
	"dandelion/internal/autoscale"
	"dandelion/internal/cluster"
	"dandelion/internal/core"
	"dandelion/internal/journal"
	"dandelion/internal/wire"
)

// TenantHeader is the request header naming the tenant an invocation is
// scheduled under; absent or empty selects the default tenant.
const TenantHeader = "X-Tenant"

// IdempotencyKeyHeader is the request header carrying a client-chosen
// idempotency key. On /invoke it keys the single invocation; on
// /invoke-batch it is a base key the frontend expands to one key per
// request ("<base>#<i>" in body order), so a client can resend an
// entire batch after a lost response and have completed requests
// answered from the worker's dedup table. A key whose work already
// completed but whose outputs are no longer cached answers 409. See
// docs/JOURNAL.md.
const IdempotencyKeyHeader = "Idempotency-Key"

// DeadlineHeader is the request header carrying the caller's remaining
// deadline budget in milliseconds. A positive value bounds the
// invocation with a context deadline: work that cannot start before the
// budget lapses is dropped expired by the scheduler (504), and a
// request whose tenant backlog is already older than the budget is shed
// up front (503 + Retry-After) without decoding the body. In
// coordinator mode the remaining budget is re-stamped onto the wire for
// each worker hop, so deadlines shrink monotonically end to end.
// Absent, empty, or unparsable values mean no deadline — the
// pre-deadline behavior, preserved for old clients. See
// docs/ROBUSTNESS.md.
const DeadlineHeader = "X-Deadline-Ms"

// Config parameterizes the frontend beyond its platform.
type Config struct {
	// Now is the clock feeding the admission windows (default
	// time.Now); tests inject a virtual clock.
	Now func() time.Time
	// AdminToken enables the authenticated /admin control-plane routes
	// (see admin.go); empty disables them (403 on every /admin request).
	AdminToken string
	// Cluster optionally attaches a cluster manager and makes this
	// frontend a cluster ingress (coordinator mode): invocation routes
	// dispatch through the manager across the registered workers
	// instead of into the local platform, so composition existence is
	// checked by the worker that receives each request. Tenant-weight
	// updates fan out to every registered worker, and GET
	// /stats/cluster serves the manager's aggregated cluster-wide
	// gauges.
	Cluster *cluster.Manager
	// Tracker attaches heartbeat-tracked remote membership (it implies
	// Cluster, which may be left nil): the worker registration surface
	// (POST /cluster/join, POST /cluster/heartbeat — see remote.go)
	// comes alive, and GET /stats/cluster gains the heartbeat and
	// eviction gauges.
	Tracker *cluster.Tracker
	// MaxBodyBytes caps request bodies on the invocation and
	// registration routes (http.MaxBytesReader; overflow answers 413
	// with a JSON error body). Zero selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxFrameBytes caps one binary-framed record's declared payload
	// (wire.Decoder.SetMaxFrameBytes) on the streaming batch route.
	// Zero selects wire.DefaultMaxFrameBytes; values above the body cap
	// are clamped down to it — a frame can never out-declare the body
	// it arrives in. A record over the budget is rejected with the
	// distinct frame-too-large error (413 when it heads the stream,
	// wire.ErrFrameTooLarge in the frame error otherwise) instead of a
	// generic framing error.
	MaxFrameBytes int64
}

// DefaultMaxBodyBytes is the default request-body cap of the
// invocation and registration routes (64 MiB) — generous for batch
// bodies, but finite: without one, a single request could buffer
// unbounded memory through io.ReadAll before any admission check runs.
const DefaultMaxBodyBytes int64 = 64 << 20

// server binds the platform, the admission plane, the control-plane
// config, and the clock.
type server struct {
	p *dandelion.Platform
	// target is where invocations go, chosen once at construction: the
	// local platform, or — in coordinator mode — the cluster manager.
	target cluster.Node
	// adm is the platform's own admission plane, so the control plane's
	// SetAdmissionClamp reaches the batch route of this frontend.
	adm        *autoscale.Admission
	adminToken string
	cluster    *cluster.Manager
	tracker    *cluster.Tracker
	maxBody    int64
	maxFrame   int
	now        func() time.Time
	t0         time.Time
}

// New builds the frontend handler for a platform node with the zero
// Config.
//
// Routes:
//
//	POST /register/function/<name>   body = dvm binary
//	     headers: X-Memory-Bytes, X-Gas-Limit, X-Output-Sets
//	POST /register/composition       body = DSL text
//	POST /invoke/<composition>?input=<InputSet>[&output=<OutputSet>]
//	     headers: X-Tenant (optional tenant identity)
//	     body = single input item; response = first item of the
//	     requested output set — or, with no output param, of the first
//	     non-empty set in sorted set-name order (a deterministic pick;
//	     map iteration order must never decide a response); unknown
//	     compositions are rejected with 400 and a JSON error body.
//	POST /invoke-batch/<composition> body = JSON array of request
//	     objects ({"inputs": {"<set>": [{"name","key","data"}]}}, data
//	     base64); response = JSON array of {"outputs","error"} in
//	     request order. The X-Tenant header names the tenant the whole
//	     batch is scheduled under, and the batch is split into
//	     admission-window-sized sub-batches (per-tenant, demand-sized
//	     by internal/autoscale) before Platform.InvokeBatch — client
//	     framing is advisory, not trusted. Malformed JSON and unknown
//	     compositions are rejected with 400 and a JSON error body
//	     {"error": "..."}. With Content-Type:
//	     application/x-dandelion-frame the route instead speaks the
//	     length-prefixed binary framing (docs/WIRE.md): request records
//	     are decoded and executed in admission-window-sized sub-batches
//	     while the body is still uploading, and each sub-batch's result
//	     frames are flushed before the next window is read. This is
//	     the form cluster.RemoteNode sends every invocation and batch
//	     through.
//	GET  /stats                      JSON platform gauges, including
//	     the per-tenant scheduling gauges (queued, running, completed,
//	     dispatch-wait avg/p99/max) under "Tenants"
//	GET  /stats/cluster              cluster-wide aggregated gauges
//	     (requires Config.Cluster; see cluster.Manager.AggregateStats)
//	/admin/...                       the authenticated control-plane
//	     surface (tenant weights, engine counts, autoscale, admission
//	     clamp, drain); requires Config.AdminToken — see admin.go and
//	     docs/ADMIN.md
//	POST /cluster/join               worker registration (remote
//	     workers; requires Config.Tracker — see remote.go and
//	     docs/CLUSTER.md)
//	POST /cluster/heartbeat          worker liveness beat (404 for
//	     unknown/evicted workers, telling them to re-join)
//
// Wrong methods answer 405 with an Allow header and a JSON error body.
// An invocation's own error text (an /invoke/ error body, a batch
// slot's "error", an E frame) starts with its reason token
// (core.EncodeReason, docs/WIRE.md).
// While the node drains (POST /admin/drain), invocation routes answer
// 503 with a JSON error body until resumed.
func New(p *dandelion.Platform) http.Handler {
	return NewWithConfig(p, Config{})
}

// NewWithConfig builds the frontend handler with an explicit Config.
// Batch admission always uses the platform's own admission plane.
func NewWithConfig(p *dandelion.Platform, cfg Config) http.Handler {
	s := &server{
		p: p, adm: p.Admission(), adminToken: cfg.AdminToken,
		cluster: cfg.Cluster, tracker: cfg.Tracker, now: cfg.Now,
		maxBody: cfg.MaxBodyBytes,
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	frame := cfg.MaxFrameBytes
	if frame <= 0 {
		frame = wire.DefaultMaxFrameBytes
	}
	if frame > s.maxBody {
		// A record's declared payload cannot exceed the body it must
		// arrive in; a larger budget would only defer the rejection from
		// the cheap length check to the MaxBytesReader overflow.
		frame = s.maxBody
	}
	s.maxFrame = int(frame)
	if s.tracker != nil && s.cluster == nil {
		s.cluster = s.tracker.Manager()
	}
	s.target = p.Platform
	if s.cluster != nil {
		s.target = s.cluster
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.t0 = s.now()
	mux := http.NewServeMux()
	mux.HandleFunc("/register/function/", method(http.MethodPost, s.limitBody(s.handleRegisterFunction)))
	mux.HandleFunc("/register/composition", method(http.MethodPost, s.limitBody(s.handleRegisterComposition)))
	mux.HandleFunc("/invoke/", method(http.MethodPost, s.limitBody(s.handleInvoke)))
	mux.HandleFunc("/invoke-batch/", method(http.MethodPost, s.limitBody(s.handleInvokeBatch)))
	mux.HandleFunc("/stats", method(http.MethodGet, s.handleStats))
	mux.HandleFunc("/stats/cluster", method(http.MethodGet, s.handleClusterStats))
	mux.HandleFunc("/admin/tenants/", s.adminAuth(s.handleAdminTenant))
	mux.HandleFunc("/admin/engines", s.adminAuth(s.handleAdminEngines))
	mux.HandleFunc("/admin/drain", s.adminAuth(method(http.MethodPost, s.handleAdminDrain)))
	mux.HandleFunc("/cluster/join", s.clusterAuth(method(http.MethodPost, s.handleClusterJoin)))
	mux.HandleFunc("/cluster/heartbeat", s.clusterAuth(method(http.MethodPost, s.handleClusterHeartbeat)))
	return mux
}

// clockSeconds is the admission plane's timeline: seconds since the
// frontend booted.
func (s *server) clockSeconds() float64 { return s.now().Sub(s.t0).Seconds() }

// tenantOf extracts the request's tenant identity.
func tenantOf(r *http.Request) string {
	return strings.TrimSpace(r.Header.Get(TenantHeader))
}

// keyOf extracts the request's idempotency key.
func keyOf(r *http.Request) string {
	return strings.TrimSpace(r.Header.Get(IdempotencyKeyHeader))
}

// invokeStatus maps an invocation error to its HTTP status: 503 while
// draining, 409 for an idempotency-key conflict (completed key without
// cached outputs, or a key still executing), 504 for deadline-class
// failures (the X-Deadline-Ms budget lapsed in a queue or mid-flight),
// 500 otherwise. The error text leaves the node prefixed by its
// core.EncodeReason token, from which a coordinator's RemoteNode
// recovers the same sentinel, and so the same status.
func invokeStatus(err error) int {
	switch {
	case errors.Is(err, dandelion.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, dandelion.ErrDuplicate), errors.Is(err, dandelion.ErrInFlight):
		return http.StatusConflict
	case dandelion.IsTimeout(err):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// requestCtx derives the invocation context from the request: a
// positive X-Deadline-Ms header bounds the work with a deadline that
// travels through the scheduler (expired entries dropped before
// dispatch) and — in coordinator mode — over the wire to workers.
// Returns the context, its cancel (always non-nil), and the budget
// (zero when the request carries no usable deadline).
func requestCtx(r *http.Request) (context.Context, context.CancelFunc, time.Duration) {
	v := strings.TrimSpace(r.Header.Get(DeadlineHeader))
	if v == "" {
		return r.Context(), func() {}, 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return r.Context(), func() {}, 0
	}
	budget := time.Duration(ms) * time.Millisecond
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	return ctx, cancel, budget
}

// shed answers true after writing 503 + Retry-After when a deadline-
// carrying request cannot possibly meet its budget: the tenant's
// oldest queued work has already waited longer than the entire budget,
// so this request would only expire in the queue behind it. Runs
// before any body decode — shedding is only worth doing if it is
// cheap. Coordinator mode skips the check (the local queues are not
// where cluster-routed work waits).
func (s *server) shed(w http.ResponseWriter, tenant string, budget time.Duration) bool {
	if budget <= 0 || s.cluster != nil {
		return false
	}
	if !s.p.ShouldShed(tenant, budget) {
		return false
	}
	w.Header().Set("Retry-After", "1")
	jsonError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("overloaded: queued work older than the %v deadline budget", budget))
	return true
}

// jsonError writes a JSON error body, the uniform error shape of every
// route.
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// limitBody caps a route's request body (Config.MaxBodyBytes).
// Handlers surface the overflow through bodyError, which maps it to a
// 413 JSON error.
func (s *server) limitBody(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		h(w, r)
	}
}

// bodyError maps a request-body read/decode failure to its status:
// 413 when the body hit the MaxBytesReader cap or a binary record
// declared a payload over the frame budget (wire.ErrFrameTooLarge —
// the distinct over-budget signal, kept apart from malformed-frame
// 400s so clients can tell "shrink your payload" from "fix your
// encoder"), 400 otherwise.
func bodyError(w http.ResponseWriter, context string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		jsonError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		return
	}
	if errors.Is(err, wire.ErrFrameTooLarge) {
		jsonError(w, http.StatusRequestEntityTooLarge, context+err.Error())
		return
	}
	jsonError(w, http.StatusBadRequest, context+err.Error())
}

// method guards a handler to one HTTP method, answering a consistent
// 405 (with Allow header) otherwise.
func method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			jsonError(w, http.StatusMethodNotAllowed, want+" only")
			return
		}
		h(w, r)
	}
}

func (s *server) handleRegisterFunction(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/register/function/")
	if name == "" {
		jsonError(w, http.StatusBadRequest, "function name required")
		return
	}
	binary, err := io.ReadAll(r.Body)
	if err != nil {
		bodyError(w, "", err)
		return
	}
	fn := dandelion.ComputeFunc{Name: name, Binary: binary}
	if v := r.Header.Get("X-Memory-Bytes"); v != "" {
		if fn.MemBytes, err = strconv.Atoi(v); err != nil {
			jsonError(w, http.StatusBadRequest, "bad X-Memory-Bytes")
			return
		}
	}
	if v := r.Header.Get("X-Gas-Limit"); v != "" {
		if fn.GasLimit, err = strconv.ParseInt(v, 10, 64); err != nil {
			jsonError(w, http.StatusBadRequest, "bad X-Gas-Limit")
			return
		}
	}
	if v := r.Header.Get("X-Output-Sets"); v != "" {
		// Trim each name and drop empty segments: "a, b," must mean
		// ["a", "b"], not ["a", " b", ""] — output sets are positional,
		// so a phantom entry shifts every later mapping.
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				fn.OutputSets = append(fn.OutputSets, name)
			}
		}
	}
	if err := s.p.RegisterFunction(fn); err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	fmt.Fprintf(w, "registered function %s (%d bytes)\n", name, len(binary))
}

func (s *server) handleRegisterComposition(w http.ResponseWriter, r *http.Request) {
	src, err := io.ReadAll(r.Body)
	if err != nil {
		bodyError(w, "", err)
		return
	}
	names, err := s.p.RegisterCompositionText(string(src))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	fmt.Fprintf(w, "registered compositions: %s\n", strings.Join(names, ", "))
}

// invoke dispatches one invocation to the frontend's target. The
// node's own drain switch gates admission whichever target serves — a
// draining coordinator must refuse work its workers would accept.
func (s *server) invoke(ctx context.Context, req dandelion.Request) (map[string][]dandelion.Item, error) {
	if s.p.Draining() {
		return nil, dandelion.ErrDraining
	}
	return s.target.Invoke(ctx, req)
}

// knownComposition reports whether an invocation route should admit the
// named composition. A coordinator routing via the cluster cannot know
// the workers' registries, so existence is checked by whichever worker
// receives the request.
func (s *server) knownComposition(name string) bool {
	return s.cluster != nil || s.p.HasComposition(name)
}

func (s *server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/invoke/")
	if name == "" {
		jsonError(w, http.StatusBadRequest, "need /invoke/<composition>")
		return
	}
	query := r.URL.Query()
	input := query.Get("input")
	if input == "" {
		jsonError(w, http.StatusBadRequest, "need /invoke/<composition>?input=<InputSet>")
		return
	}
	if !s.knownComposition(name) {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("unknown composition %q", name))
		return
	}
	ctx, cancel, budget := requestCtx(r)
	defer cancel()
	if s.shed(w, tenantOf(r), budget) {
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		bodyError(w, "", err)
		return
	}
	out, err := s.invoke(ctx, dandelion.Request{
		Composition: name, Tenant: tenantOf(r), Key: keyOf(r),
		Inputs: map[string][]dandelion.Item{input: {{Name: "item0", Data: body}}},
	})
	if err != nil {
		jsonError(w, invokeStatus(err), core.EncodeReason(err))
		return
	}
	if want := query.Get("output"); want != "" {
		items, ok := out[want]
		if !ok {
			jsonError(w, http.StatusNotFound, fmt.Sprintf("no output set %q", want))
			return
		}
		if len(items) == 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeRaw(w, items[0].Data)
		return
	}
	// No output requested: pick the first non-empty set in sorted
	// set-name order. Iterating the map directly would let Go's
	// randomized iteration order decide the response — two identical
	// requests could answer from different sets.
	sets := make([]string, 0, len(out))
	for set := range out {
		sets = append(sets, set)
	}
	sort.Strings(sets)
	for _, set := range sets {
		if items := out[set]; len(items) > 0 {
			writeRaw(w, items[0].Data)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeRaw answers a function's output bytes as they are. Naming the
// type keeps net/http from sniffing it: an output that starts with
// <html would otherwise go out as text/html.
func writeRaw(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSONBuffered(w, s.p.Stats())
}

// setsBytes sums the decoded payload bytes of one request's input
// sets — the sample the byte-aware admission window divides against.
func setsBytes(sets map[string][]dandelion.Item) int64 {
	var n int64
	for _, items := range sets {
		for _, it := range items {
			n += int64(len(it.Data))
		}
	}
	return n
}

// admitName maps a request tenant onto the admission plane's key
// space, where the empty tenant is spelled out.
func admitName(tenant string) string {
	if tenant == "" {
		return dandelion.DefaultTenant
	}
	return tenant
}

func (s *server) handleInvokeBatch(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/invoke-batch/")
	if name == "" {
		jsonError(w, http.StatusBadRequest, "need /invoke-batch/<composition>")
		return
	}
	// Cheap rejects before touching the body: a drained node or a
	// misaddressed composition must not pay a full body decode of an
	// arbitrarily large batch just to answer 4xx/503.
	if !s.knownComposition(name) {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("unknown composition %q", name))
		return
	}
	if s.p.Draining() {
		jsonError(w, http.StatusServiceUnavailable, core.EncodeReason(dandelion.ErrDraining))
		return
	}
	ctx, cancel, budget := requestCtx(r)
	defer cancel()
	if s.shed(w, tenantOf(r), budget) {
		return
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentTypeBinary) {
		s.handleInvokeBatchBinary(ctx, w, r, name)
		return
	}
	buf := jsonBodies.Get().(*bytes.Buffer)
	wireReqs, err := decodeJSONBatch(buf, r.Body)
	if buf.Cap() <= maxPooledBody {
		jsonBodies.Put(buf)
	}
	if err != nil {
		bodyError(w, "bad batch body: ", err)
		return
	}
	tenant := tenantOf(r)
	reqs := make([]dandelion.Request, len(wireReqs))
	var batchBytes int64
	baseKey := keyOf(r)
	for i, wr := range wireReqs {
		// Per-request body keys win; an Idempotency-Key header supplies
		// a base expanded to "<base>#<i>" for requests without one.
		key := wr.Key
		if key == "" && baseKey != "" {
			key = journal.ChunkKey(baseKey, i)
		}
		reqs[i] = dandelion.Request{Composition: name, Tenant: tenant, Key: key, Inputs: wire.ToSets(wr.Inputs)}
		batchBytes += setsBytes(reqs[i].Inputs)
	}

	// Admit the batch: record demand (count and payload bytes — the
	// window narrows for byte-heavy tenants), then drive it through the
	// target in admission-window-sized sub-batches. The window is
	// re-read between sub-batches so a sustained burst widens it while
	// it is still being drained.
	admitTenant := admitName(tenant)
	window := s.adm.AdmitBytes(admitTenant, len(reqs), batchBytes, s.clockSeconds())
	results := make([]dandelion.Result, 0, len(reqs))
	for lo := 0; lo < len(reqs); {
		if window < 1 {
			window = 1
		}
		hi := lo + window
		if hi > len(reqs) {
			hi = len(reqs)
		}
		results = append(results, s.target.InvokeBatch(ctx, reqs[lo:hi])...)
		lo = hi
		if lo < len(reqs) {
			window = s.adm.Window(admitTenant, s.clockSeconds())
		}
	}
	s.adm.Finish(admitTenant, len(reqs), s.clockSeconds())

	wireRes := make([]wire.BatchResult, len(results))
	for i, res := range results {
		if res.Err != nil {
			wireRes[i].Error = core.EncodeReason(res.Err)
			continue
		}
		wireRes[i].Outputs = wire.FromSets(res.Outputs)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(wireRes)
}

// jsonBodies pools the JSON batch route's body buffers. A buffer that
// grew past maxPooledBody is dropped rather than kept alive.
var jsonBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// decodeJSONBatch reads a whole JSON batch body, up to limitBody's cap,
// into buf and decodes it. wire.DecodeBatchJSON copies everything out
// of the body, so buf may be reused as soon as this returns.
func decodeJSONBatch(buf *bytes.Buffer, body io.Reader) ([]wire.BatchRequest, error) {
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		return nil, err
	}
	return wire.DecodeBatchJSON(buf.Bytes())
}

// handleInvokeBatchBinary is the streaming form of the batch route
// (Content-Type: application/x-dandelion-frame). Request records are
// decoded incrementally and executed in admission-window-sized
// sub-batches while the body is still uploading; each sub-batch's
// result frames are written and flushed before the next window is
// read, so a slow uploader observes its first results mid-upload.
// Decoder buffers are recycled per sub-batch through a borrowed-region
// lease (dandelion.Region wrapping dec.Recycle): each sub-batch's
// requests carry the region as Request.Borrow so every compute
// context that aliases the decoded payloads retains it, and the
// frontend drops its own creator reference only after the sub-batch's
// result frames — which may alias the same buffers — are encoded. The
// recycle hook fires at the last release, wherever that happens.
func (s *server) handleInvokeBatchBinary(ctx context.Context, w http.ResponseWriter, r *http.Request, name string) {
	tenant := tenantOf(r)
	admitTenant := admitName(tenant)
	baseKey := keyOf(r)
	dec := wire.NewDecoder(r.Body)
	dec.SetMaxFrameBytes(s.maxFrame)
	defer dec.Release()

	// Decode the first record before committing a status: a stream
	// malformed from the start still gets a clean 400.
	first, firstKey, err := dec.DecodeKeyedRequest()
	if err != nil && err != io.EOF {
		bodyError(w, "bad batch body: ", err)
		return
	}
	// Go's HTTP/1 server closes the request body once the response
	// starts; full duplex keeps it readable so results can stream out
	// while later records stream in (a no-op error on writers that
	// don't support or need it, e.g. HTTP/2 and test recorders).
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Content-Type", wire.ContentTypeBinary)
	enc := wire.NewEncoder(w)
	defer enc.Release()

	reqs := make([]dandelion.Request, 0, 16)
	reqIdx := 0 // running request index, for Idempotency-Key expansion
	var pendingBytes int64
	add := func(sets map[string][]dandelion.Item, key string) {
		// Per-request frame keys win; the Idempotency-Key header
		// supplies a base expanded to "<base>#<i>" in stream order.
		if key == "" && baseKey != "" {
			key = journal.ChunkKey(baseKey, reqIdx)
		}
		reqs = append(reqs, dandelion.Request{Composition: name, Tenant: tenant, Key: key, Inputs: sets})
		pendingBytes += setsBytes(sets)
		reqIdx++
	}
	if err != io.EOF {
		add(first, firstKey)
	}
	for {
		// Fill up to the current admission window, then execute; the
		// window is re-read per sub-batch so a sustained burst widens
		// it while the body is still streaming in.
		window := s.adm.Window(admitTenant, s.clockSeconds())
		if window < 1 {
			window = 1
		}
		var streamErr error
		for len(reqs) < window {
			sets, key, derr := dec.DecodeKeyedRequest()
			if derr != nil {
				streamErr = derr
				break
			}
			add(sets, key)
		}
		if len(reqs) > 0 {
			s.adm.AdmitBytes(admitTenant, len(reqs), pendingBytes, s.clockSeconds())
			pendingBytes = 0
			// The sub-batch's inputs alias the decoder's buffers: lease
			// them to every request so compute contexts that adopt the
			// payloads keep the buffers alive. A coordinator's remote
			// workers ignore the lease — they re-serialize the inputs
			// before InvokeBatch returns, and this frame holds the
			// creator reference until the results are encoded.
			borrow := dandelion.NewRegion(dec.Recycle)
			for i := range reqs {
				reqs[i].Borrow = borrow
			}
			for _, res := range s.target.InvokeBatch(ctx, reqs) {
				if res.Err != nil {
					enc.EncodeError(core.EncodeReason(res.Err))
				} else {
					enc.EncodeResult(res.Outputs)
				}
			}
			rc.Flush()
			borrow.Release()
			s.adm.Finish(admitTenant, len(reqs), s.clockSeconds())
			reqs = reqs[:0]
		}
		if streamErr == io.EOF {
			break
		}
		if streamErr != nil {
			// Corruption after results were already written: the status
			// is committed, so the only honest signal left is a
			// truncated response — return without FrameEnd. An
			// over-budget record is the one diagnosable case (the
			// decoder rejected it before consuming the stream), so name
			// it in a frame error first; the missing FrameEnd still
			// marks the batch incomplete.
			if errors.Is(streamErr, wire.ErrFrameTooLarge) {
				enc.EncodeError(core.EncodeReason(streamErr))
				rc.Flush()
			}
			// Discard what's left of the body (bounded by the body cap):
			// returning with unread bytes on a full-duplex connection
			// trips net/http's concurrent-read guard when the server
			// tries to advance past the request.
			io.Copy(io.Discard, r.Body)
			return
		}
	}
	enc.EncodeEnd()
}

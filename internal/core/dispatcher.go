package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dandelion/internal/autoscale"
	"dandelion/internal/ctlplane"
	"dandelion/internal/engine"
	"dandelion/internal/graph"
	"dandelion/internal/isolation"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
)

// DefaultTenant is the identity invocations run under when the caller
// supplies none; see internal/sched.
const DefaultTenant = sched.DefaultTenant

// Execution errors.
var (
	ErrTooDeep        = errors.New("core: nested composition depth limit exceeded")
	ErrInstanceFanout = errors.New("core: mismatched instance counts across inputs")
	ErrMissingInput   = errors.New("core: missing composition input")
	// ErrDraining rejects new invocations while the node drains (see
	// Platform.Drain); in-flight compositions complete normally.
	ErrDraining = errors.New("core: platform draining")
	// ErrExpired re-exports the scheduling plane's deadline-drop error:
	// a dispatch whose deadline passed while parked (never executed).
	ErrExpired = sched.ErrExpired
)

// IsTimeout reports whether an invocation error is deadline-class: the
// caller's context deadline fired mid-flight, or the scheduling plane
// dropped the work unexecuted because its deadline had already passed.
// The frontend maps these to 504; Stats.TimedOut counts them.
func IsTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, sched.ErrExpired)
}

// reasons is the fixed reason table: the token an invocation error
// carries when its text leaves a node, and the sentinel the token
// stands for. An error matching no row travels as reasonOther.
var reasons = [...]struct {
	token string
	err   error
}{
	{"draining", ErrDraining},
	{"duplicate", ErrDuplicate},
	{"in_flight", ErrInFlight},
	{"expired", ErrExpired},
	{"timed_out", context.DeadlineExceeded},
}

const reasonOther = "error"

// EncodeReason renders an invocation error for the wire as
// "<token>: <text>". Every error gets a token, so text a function
// chose can never sit in the token position.
func EncodeReason(err error) string {
	for _, r := range reasons {
		if errors.Is(err, r.err) {
			return r.token + ": " + err.Error()
		}
	}
	return reasonOther + ": " + err.Error()
}

// reasonError is a decoded wire error: its text without the token,
// unwrapping to the token's sentinel.
type reasonError struct {
	sentinel error
	text     string
}

func (e *reasonError) Error() string { return e.text }
func (e *reasonError) Unwrap() error { return e.sentinel }

// DecodeReason inverts EncodeReason: the result errors.Is the token's
// sentinel and its text has the token removed, so re-encoding it
// yields the wire text again. Text with no known token (a route-level
// rejection such as a shed or an unknown composition) comes back as is.
func DecodeReason(text string) error {
	token, rest, ok := strings.Cut(text, ": ")
	if !ok {
		return errors.New(text)
	}
	if token == reasonOther {
		return errors.New(rest)
	}
	for _, r := range reasons {
		if token == r.token {
			return &reasonError{sentinel: r.err, text: rest}
		}
	}
	return errors.New(text)
}

// Options configures a Platform.
type Options struct {
	// ComputeEngines and CommEngines size the initial pools; zero
	// values default to 2 and 1 (the paper boots with a single I/O
	// core and grows it on demand).
	ComputeEngines int
	CommEngines    int
	// MaxDepth bounds nested composition recursion (default 16).
	MaxDepth int
	// TenantWeights seeds the scheduling plane's per-tenant DRR weights;
	// unlisted tenants (including DefaultTenant) get weight 1. Weights
	// can be changed at runtime via SetTenantWeight.
	TenantWeights map[string]int
	// ByteFairness makes the scheduling plane's DRR deficit charge
	// payload bytes instead of task counts (sched.Config.ByteFairness):
	// every dispatched task carries its cumulative input bytes, so an
	// analytics tenant of 1 MiB scans and an equal-weight interactive
	// tenant of 100-byte invokes split the engines by *bytes moved*,
	// and the flood cannot starve the interactive tenant of dispatch
	// slots. Applies to both the compute and communication planes.
	ByteFairness bool
	// DispatchWindow bounds dispatched-but-unfinished tasks per engine
	// pool; 0 tracks the pool size (2× compute engines; comm engines ×
	// their green-thread capacity).
	DispatchWindow int
	// Autoscale turns on the control loop's budget rule: the loop
	// grows and shrinks the compute pool from backlog and dispatch-wait
	// p99 (see internal/ctlplane), counted in Stats.EngineResizes. It
	// can be toggled at runtime via SetAutoscale. Elasticity tunes it;
	// by default the pool floats in [ComputeEngines, 4×ComputeEngines].
	// The loop's PI controller runs either way.
	Autoscale  bool
	Elasticity ctlplane.Config
	// Journal, when non-nil, makes the node durable: keyed invocations
	// and admin reconfigurations are appended to it, and construction
	// replays it — reconfig records re-apply through the Reconfigurer
	// surface, completed-key records rebuild the dedup table (see
	// journal.go and docs/JOURNAL.md). The platform owns the journal
	// from here on and closes it on Shutdown.
	Journal journal.Journal
}

// Platform is one Dandelion worker node: registry + dispatcher +
// engines. It is safe for concurrent use.
type Platform struct {
	reg  *registry
	opts Options
	// execute runs a dvm program in the sandbox: isolation.Sandbox's
	// Execute, held as a method value so a test can substitute a
	// sandbox that panics.
	execute func(isolation.Task) ([]memctx.Set, error)

	// plans caches precompiled invocation plans by composition name
	// (see plan.go); entries are invalidated by registry generation.
	plans sync.Map

	computePool *engine.Pool
	commPool    *engine.Pool

	// The dynamic control plane (ctlplane.go): the control loop, the
	// one owner of the pool sizes; the batch admission plane whose
	// clamp the control plane can override; and the drain gate the
	// invoke entry points check.
	loop     *ctlplane.Loop
	adm      *autoscale.Admission
	draining atomic.Bool

	// The scheduling plane: all dispatches enter the engine queues
	// through these per-pool DRR schedulers, keyed by tenant.
	computeSched *sched.Scheduler
	commSched    *sched.Scheduler

	// Hot-path counters: batch and invocation admissions, the data
	// plane's set/byte handoffs and context-pool provenance. Plain
	// atomics, like the memory gauges beside them.
	invocations atomic.Uint64
	batches     atomic.Uint64
	zcHandoffs  atomic.Uint64
	zcBytes     atomic.Uint64
	ctxReused   atomic.Uint64
	ctxFresh    atomic.Uint64

	// Memory gauges: the peak is a max over the committed bytes, kept
	// by the CAS loop in chargeMemory.
	memCommitted atomic.Int64
	memPeak      atomic.Int64

	// Deadline-plane counters (plain atomics — ticked once per failed
	// or shed request, far off the happy path): timedOut counts
	// invocations lost to a deadline (IsTimeout errors at the public
	// entry points), shed counts requests the frontend refused outright
	// because their budget could not be met (see ShouldShed).
	timedOut atomic.Uint64
	shed     atomic.Uint64

	// The durability plane (journal.go): the invocation journal (nil
	// without Options.Journal), the always-on completed-key dedup
	// table, and their gauges. jreplaying gates the reconfiguration
	// setters so replayed records are not re-journaled.
	jrnl        journal.Journal
	dedup       *journal.Dedup
	jreplaying  atomic.Bool
	jAppends    atomic.Uint64
	jAppendErrs atomic.Uint64
	jReplayed   uint64
}

// NewPlatform builds and starts a worker node.
func NewPlatform(opts Options) (*Platform, error) {
	sandbox, err := isolation.New("cheri")
	if err != nil {
		return nil, err
	}
	if opts.ComputeEngines <= 0 {
		opts.ComputeEngines = 2
	}
	if opts.CommEngines <= 0 {
		opts.CommEngines = 1
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 16
	}
	p := &Platform{
		reg:     newRegistry(),
		opts:    opts,
		execute: sandbox.Execute,
		adm:     autoscale.NewAdmission(autoscale.AdmissionConfig{}),
	}
	p.computePool = engine.NewPool(engine.Compute, engine.NewQueue())
	p.commPool = engine.NewPool(engine.Communication, engine.NewQueue())
	// The dispatch windows track pool sizes so the control loop's
	// resizes widen or narrow the refill allowance automatically. Comm
	// engines multiplex green threads, so their window is per-slot.
	p.computeSched = sched.New(p.computePool.Queue(), sched.Config{
		Window:       opts.DispatchWindow,
		WindowFn:     func() int { return 2 * p.computePool.Count() },
		Weights:      opts.TenantWeights,
		ByteFairness: opts.ByteFairness,
	})
	p.commSched = sched.New(p.commPool.Queue(), sched.Config{
		Window:       opts.DispatchWindow,
		WindowFn:     func() int { return p.commPool.Count() * engine.DefaultCommConcurrency },
		Weights:      opts.TenantWeights,
		ByteFairness: opts.ByteFairness,
	})
	ecfg := opts.Elasticity
	if ecfg.Min < 1 {
		ecfg.Min = opts.ComputeEngines
	}
	p.loop = ctlplane.NewLoop(ecfg, p.computePool, p.commPool, p.loadSignals)
	p.loop.SetCounts(opts.ComputeEngines, opts.CommEngines)
	p.loop.SetAutoscale(opts.Autoscale)
	p.loop.Start()
	p.dedup = journal.NewDedup(0)
	if opts.Journal != nil {
		p.jrnl = opts.Journal
		if err := p.replayJournal(); err != nil {
			p.Shutdown()
			return nil, fmt.Errorf("core: journal replay: %w", err)
		}
	}
	return p, nil
}

// Shutdown stops the control loop and the engines, waiting for
// in-flight work. The schedulers close first so parked tasks are
// rejected instead of stranded behind a closing queue.
func (p *Platform) Shutdown() {
	p.loop.Stop()
	p.computeSched.Close()
	p.commSched.Close()
	p.computePool.Shutdown()
	p.commPool.Shutdown()
	if p.jrnl != nil {
		p.jrnl.Close() // checkpoints; Close is idempotent
	}
}

// SetTenantWeight sets a tenant's DRR dispatch weight (minimum 1) on
// both the compute and communication scheduling planes.
func (p *Platform) SetTenantWeight(tenant string, w int) {
	p.computeSched.SetWeight(tenant, w)
	p.commSched.SetWeight(tenant, w)
	p.journalReconfig(journal.OpTenantWeight, tenant, int64(p.TenantWeight(tenant)), 0)
}

// RegisterFunction registers a compute function.
func (p *Platform) RegisterFunction(f ComputeFunc) error {
	return p.reg.addFunc(f)
}

// RegisterComm registers a communication function. Only the platform
// should call this; user code cannot supply implementations.
func (p *Platform) RegisterComm(f CommFunc) error { return p.reg.addComm(f) }

// RegisterComposition registers a parsed composition DAG.
func (p *Platform) RegisterComposition(c *graph.Composition) error {
	return p.reg.addComposition(c)
}

// RegisterCompositionText parses DSL source and registers every
// composition it contains, returning their names.
func (p *Platform) RegisterCompositionText(src string) ([]string, error) {
	return p.reg.addCompositionText(src)
}

// Stats is a point-in-time snapshot of platform gauges. The frontend
// serializes it verbatim as the GET /stats JSON body (field names are
// the JSON keys); docs/STATS.md documents the schema for clients.
type Stats struct {
	// Invocations counts composition invocations admitted (batched
	// requests count individually); Batches counts InvokeBatch calls.
	Invocations uint64
	Batches     uint64
	// ComputeEngines / CommEngines are the current pool sizes, and
	// ComputeQueueLen / CommQueueLen their engine-queue backlogs.
	ComputeEngines  int
	CommEngines     int
	ComputeQueueLen int
	CommQueueLen    int
	// CommittedBytes is memory currently committed for live contexts;
	// PeakCommitted its historical high-water mark.
	CommittedBytes int64
	PeakCommitted  int64
	// ComputeCompleted / CommCompleted are cumulative finished engine
	// tasks; CachedPrograms is the number of distinct binaries
	// registration has decoded.
	ComputeCompleted uint64
	CommCompleted    uint64
	CachedPrograms   int
	// ZeroCopyHandoffs counts the input and output sets that crossed a
	// memory-context boundary — every crossing is an ownership move, no
	// payload copy; ZeroCopyHandoffBytes is their summed payload size.
	ZeroCopyHandoffs     uint64
	ZeroCopyHandoffBytes uint64
	// CopiedSets / CopiedBytes count the one copy the data plane makes:
	// the output sets and payload bytes the completed-key dedup table
	// clones when it caches a keyed invocation's reply.
	CopiedSets  uint64
	CopiedBytes uint64
	// PooledContextReuses / PooledContextAllocs split the hot path's
	// memory-context acquisitions by provenance: recycled through the
	// memctx context pool (warm backing allocations) vs allocated
	// fresh. A steady-state node should see reuses dominate; a rising
	// alloc share means contexts are leaving the pool (e.g. oversized
	// regions) faster than they return.
	PooledContextReuses uint64
	PooledContextAllocs uint64
	// EngineResizes counts compute-pool resizes applied by the control
	// loop's budget rule (grows plus shrinks); 0 without
	// Options.Autoscale. AutoscaleOn reports the rule's runtime switch, and Draining whether the node is refusing new invocations
	// (see Platform.Drain).
	EngineResizes uint64
	AutoscaleOn   bool
	Draining      bool
	// The durability-plane gauges. JournalEnabled reports whether the
	// node journals (Options.Journal); JournalAppends / JournalBytes /
	// JournalAppendErrors count records appended this process life,
	// the journal's durable size, and failed appends; JournalReplayed
	// is the record count construction replayed. DedupHits counts
	// duplicate keyed invocations absorbed by the completed-key table
	// (always on, journal or not) and DedupEntries its population.
	JournalEnabled      bool
	JournalAppends      uint64
	JournalAppendErrors uint64
	JournalReplayed     uint64
	JournalBytes        int64
	DedupHits           uint64
	DedupEntries        int
	// The deadline-plane counters. TimedOut counts invocations that
	// failed deadline-class (context deadline exceeded mid-flight, or
	// dropped unexecuted by the scheduler); Expired is the subset the
	// scheduling plane dropped at dispatch time, summed over tenants
	// (the per-tenant split lives in Tenants); Shed counts requests the
	// frontend refused with 503 because their deadline budget was
	// already unmeetable (see ShouldShed).
	TimedOut uint64
	Expired  uint64
	Shed     uint64
	// Tenants carries the scheduling plane's per-tenant gauges (queued,
	// running, completed, dispatch-wait), merged across the compute and
	// communication schedulers and sorted by tenant name.
	Tenants []sched.TenantStats
}

// Stats reports current platform gauges.
func (p *Platform) Stats() Stats {
	var jBytes int64
	if s, ok := p.jrnl.(journal.Sizer); ok {
		jBytes = s.Size()
	}
	tenants := sched.MergeStats(p.computeSched.Stats(), p.commSched.Stats())
	copiedSets, copiedBytes := p.dedup.Copied()
	var expired uint64
	for _, ts := range tenants {
		expired += ts.Expired
	}
	return Stats{
		TimedOut: p.timedOut.Load(),
		Expired:  expired,
		Shed:     p.shed.Load(),

		JournalEnabled:      p.jrnl != nil,
		JournalAppends:      p.jAppends.Load(),
		JournalAppendErrors: p.jAppendErrs.Load(),
		JournalReplayed:     p.jReplayed,
		JournalBytes:        jBytes,
		DedupHits:           p.dedup.Hits(),
		DedupEntries:        p.dedup.Len(),

		Tenants:          tenants,
		Invocations:      p.invocations.Load(),
		Batches:          p.batches.Load(),
		ComputeEngines:   p.computePool.Count(),
		CommEngines:      p.commPool.Count(),
		ComputeQueueLen:  p.computePool.Queue().Len(),
		CommQueueLen:     p.commPool.Queue().Len(),
		CommittedBytes:   p.memCommitted.Load(),
		PeakCommitted:    p.memPeak.Load(),
		ComputeCompleted: p.computePool.Completed(),
		CommCompleted:    p.commPool.Completed(),
		CachedPrograms:   p.reg.programCount(),
		EngineResizes:    p.EngineResizes(),
		AutoscaleOn:      p.AutoscaleOn(),
		Draining:         p.draining.Load(),

		ZeroCopyHandoffs:     p.zcHandoffs.Load(),
		ZeroCopyHandoffBytes: p.zcBytes.Load(),
		CopiedSets:           copiedSets,
		CopiedBytes:          copiedBytes,
		PooledContextReuses:  p.ctxReused.Load(),
		PooledContextAllocs:  p.ctxFresh.Load(),
	}
}

// Request is one composition invocation: the single argument of Invoke
// and the element of an InvokeBatch call. The deadline is not a field —
// it lives in the context the call is made under.
type Request struct {
	// Composition names the registered composition to run.
	Composition string
	// Tenant is the identity the request is scheduled and accounted
	// under; empty means DefaultTenant. Requests of different tenants may
	// share one InvokeBatch call — they are grouped and accounted
	// separately.
	Tenant string
	// Key is the request's idempotency key; empty opts out and keeps the
	// request on the journal-free path. A keyed request is checked
	// against the completed-key dedup table before execution (a
	// duplicate is answered from the table, never re-executed) and, on a
	// journaling platform, written to the durable journal (see
	// journal.go). cluster.Manager assigns chunk keys "base#i" so
	// rerouted chunks retry safely.
	Key string
	// Inputs maps the composition's input names to items.
	Inputs map[string][]memctx.Item
	// Borrow, when non-nil, marks Inputs as aliasing externally pooled
	// memory (decoded wire buffers) leased under the given region.
	// Compute contexts adopt the payloads borrowed
	// (memctx.AdoptInputSetBorrowed): every context that aliases them
	// retains the region for the duration of its use, so the owner's
	// recycle hook cannot fire while the bytes are live. Outputs may
	// alias the inputs or live in buffers the region owns
	// (memctx.Alloc), so the caller keeps its own reference until it
	// has consumed the results.
	Borrow *memctx.Region
}

// Result is the outcome of one request in a batch. Requests fail
// independently: one request's error never aborts its batch-mates.
type Result struct {
	Outputs map[string][]memctx.Item
	Err     error
}

// tenantOrDefault is the one place an empty tenant becomes
// DefaultTenant for everything core records under a tenant name (batch
// grouping, journal records); the scheduling plane spells it the same.
func tenantOrDefault(t string) string {
	if t == "" {
		return DefaultTenant
	}
	return t
}

// Invoke runs a registered composition and returns its output sets
// keyed by output name. Every engine dispatch it causes is scheduled in
// the request tenant's DRR share and carries the context's deadline
// (expired work is dropped unexecuted by the scheduling plane);
// cancellation stops new statements from starting, and deadline-class
// failures tick Stats.TimedOut.
//
// A request with a Key runs under it: a key that already completed
// answers from the dedup table (cached outputs, or ErrDuplicate when
// only the journaled digest survives) without re-executing; a key still
// executing answers ErrInFlight; a fresh key executes with begin/end
// journaling, or with one KindChunkDone record on success when the key
// has the "base#N" chunk shape. A failed keyed invocation —
// deadline-class included — releases its key, so a retry may
// re-execute.
//
// Invoke is InvokeBatch of one request: the same executor, except that
// it ticks Stats.Invocations but not Stats.Batches.
func (p *Platform) Invoke(ctx context.Context, req Request) (map[string][]memctx.Item, error) {
	if p.draining.Load() {
		return nil, ErrDraining
	}
	var res [1]Result
	p.dispatch(ctx, []Request{req}, res[:])
	return res[0].Outputs, res[0].Err
}

// noteTimeout ticks the deadline-loss counter for IsTimeout errors; the
// nil-error fast path is a single branch.
func (p *Platform) noteTimeout(err error) {
	if err != nil && IsTimeout(err) {
		p.timedOut.Add(1)
	}
}

// ShouldShed reports whether a new request for the tenant with the
// given deadline budget is already hopeless and should be refused at
// admission (503) instead of queued: the tenant has parked compute work
// (its dispatch window is saturated) whose oldest entry has been
// waiting longer than the whole budget, so a new submission would park
// behind it and expire unserved. A true return ticks Stats.Shed — the
// caller must actually shed. Zero budget (no deadline) never sheds.
func (p *Platform) ShouldShed(tenant string, budget time.Duration) bool {
	if budget <= 0 {
		return false
	}
	if p.computeSched.OldestWait(tenant) <= budget {
		return false
	}
	p.shed.Add(1)
	return true
}

// HasComposition reports whether a composition is registered, letting
// the frontend reject unknown names before admitting a batch.
func (p *Platform) HasComposition(name string) bool {
	_, err := p.reg.composition(name)
	return err == nil
}

// valueStore holds the dataflow values of one invocation. Values are
// exchanged by reference: producers deposit the sets handed off out of
// their contexts and consumers receive aliases.
type valueStore struct {
	mu   sync.Mutex
	vals map[string][]memctx.Item
}

// valueStorePool recycles valueStores across invocations: every request
// allocates one (batch requests one each), and the map's buckets are
// the dominant cost. Recycling is safe because the store only holds
// item-slice references — putValueStore clears the keys (dropping the
// references) but keeps the buckets, and the slices themselves remain
// valid in the caller's output map after the store is reused.
var valueStorePool = sync.Pool{
	New: func() any { return &valueStore{vals: make(map[string][]memctx.Item, 8)} },
}

// maxPooledStoreVals bounds the dataflow names a recycled store may
// have held: Go maps never shrink their buckets, so a store inflated by
// one giant composition would stay giant in the pool forever (the same
// over-capacity rule as memctx's 4 MiB region recycle cap).
const maxPooledStoreVals = 512

func getValueStore() *valueStore { return valueStorePool.Get().(*valueStore) }

func putValueStore(s *valueStore) {
	if len(s.vals) > maxPooledStoreVals {
		return // oversized: leave it to the GC
	}
	clear(s.vals)
	valueStorePool.Put(s)
}

func (s *valueStore) get(name string) []memctx.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[name]
}

func (s *valueStore) set(name string, items []memctx.Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[name] = items
}

// instance is one function instantiation: the input sets it receives.
type instance []memctx.Set

// expandInstances applies the all/each/key distribution keywords to a
// statement's argument values (one set per argument, holding the whole
// value). Args in `all` mode broadcast to every instance; `each`/`key`
// args split into groups. All split args must agree on the group count
// (or be broadcast), matching co-partitioned zip semantics.
func expandInstances(args []graph.Arg, vals instance) ([]instance, error) {
	type argGroups struct {
		groups [][]memctx.Item
	}
	split := make([]argGroups, len(args))
	n := 1
	for ai, a := range args {
		items := vals[ai].Items
		switch a.Mode {
		case graph.All:
			split[ai].groups = [][]memctx.Item{items}
		case graph.Each:
			gs := make([][]memctx.Item, len(items))
			for i := range items {
				gs[i] = items[i : i+1]
			}
			split[ai].groups = gs
		case graph.Key:
			sets := memctx.GroupByKey(vals[ai])
			gs := make([][]memctx.Item, len(sets))
			for i := range sets {
				gs[i] = sets[i].Items
			}
			split[ai].groups = gs
		default:
			return nil, fmt.Errorf("core: unknown distribution mode %v", a.Mode)
		}
		if len(split[ai].groups) == 0 {
			// An empty optional split argument broadcasts its empty set.
			split[ai].groups = [][]memctx.Item{nil}
		}
		if g := len(split[ai].groups); g > 1 {
			if n > 1 && g != n {
				return nil, fmt.Errorf("%w: %d vs %d", ErrInstanceFanout, n, g)
			}
			n = g
		}
	}
	out := make([]instance, n)
	for i := 0; i < n; i++ {
		inst := make(instance, len(args))
		for ai, a := range args {
			gs := split[ai].groups
			var group []memctx.Item
			if len(gs) == 1 {
				group = gs[0]
			} else {
				group = gs[i]
			}
			inst[ai] = memctx.Set{Name: a.Param, Items: group}
		}
		out[i] = inst
	}
	return out, nil
}

// funcMemBytes resolves a function's declared context limit.
func funcMemBytes(f *registeredFunc) int {
	if f.MemBytes > 0 {
		return f.MemBytes
	}
	return memctx.DefaultLimit
}

// runComputeIn executes one instance inside the provided context, which
// the batch path reuses (via Reset) across the instances of a chunk.
//
// Every boundary crossing is an ownership move, never a memcpy: the
// context adopts the instance's input sets (AdoptInputSetBorrowed), the
// function reads them in place (ShareInputSets), and its outputs are
// handed off (AdoptOutputs + TakeOutputs), so the dispatcher — and
// through it the consuming statement's context, also across chunk
// boundaries within one batch — receives the producer's buffers. Moves
// keep the limit enforcement and committed-bytes accounting a copy
// would have. The functions' side of the bargain is the GoFunc
// contract: inputs are read-only.
//
// borrow, when non-nil, is the wire-memory lease of the request the
// instance belongs to (Request.Borrow): the context retains it until
// its Reset/Recycle, so the decoder slabs the inputs alias cannot be
// recycled mid-execution.
func (p *Platform) runComputeIn(ctx *memctx.Context, f *registeredFunc, inst instance, borrow *memctx.Region) (outs []memctx.Set, err error) {
	for _, s := range inst {
		if err := ctx.AdoptInputSetBorrowed(s, borrow); err != nil {
			return nil, err
		}
		p.zcHandoffs.Add(1)
		p.zcBytes.Add(uint64(s.TotalBytes()))
	}
	charge := int64(ctx.CommittedBytes())
	p.chargeMemory(charge)
	defer p.releaseMemory(&charge)

	// One recover for both kinds: a panic in a Go function or in the
	// sandbox running an untrusted binary fails this invocation, never
	// the engine goroutine and with it the process.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: function %q crashed: %v", f.Name, r)
			outs = nil
		}
	}()
	if f.Go != nil {
		outs, err = f.Go(ctx.ShareInputSets())
	} else {
		outs, err = p.execute(isolation.Task{
			Prepared: f.prog,
			MemBytes: funcMemBytes(f),
			Inputs:   ctx.ShareInputSets(),
			GasLimit: f.GasLimit,
		})
	}
	if err != nil {
		return nil, err
	}
	// Positional rename for dvm outputs (out0, out1, ...), via the
	// rename table precomputed at registration.
	if f.Go == nil && f.outRename != nil {
		for i := range outs {
			if declared, ok := f.outRename[outs[i].Name]; ok {
				outs[i].Name = declared
			}
		}
	}
	if err := ctx.AdoptOutputs(outs); err != nil {
		return nil, err
	}
	ctx.Seal()
	newCharge := int64(ctx.CommittedBytes())
	p.chargeMemory(newCharge - charge)
	charge = newCharge
	taken, err := ctx.TakeOutputs()
	if err != nil {
		return nil, err
	}
	for _, s := range taken {
		p.zcHandoffs.Add(1)
		p.zcBytes.Add(uint64(s.TotalBytes()))
	}
	return taken, nil
}

func (p *Platform) chargeMemory(delta int64) {
	cur := p.memCommitted.Add(delta)
	for {
		peak := p.memPeak.Load()
		if cur <= peak || p.memPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

func (p *Platform) releaseMemory(charge *int64) {
	p.memCommitted.Add(-*charge)
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dandelion/internal/autoscale"
	"dandelion/internal/controlplane"
	"dandelion/internal/ctlplane"
	"dandelion/internal/dvm"
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

// Options configures a Platform.
type Options struct {
	// Backend isolates compute functions; nil selects the CHERI-style
	// backend (the fastest in Table 1).
	Backend isolation.Backend
	// ComputeEngines and CommEngines size the initial pools; zero
	// values default to 2 and 1 (the paper boots with a single I/O
	// core and grows it on demand).
	ComputeEngines int
	CommEngines    int
	// CacheBinaries keeps decoded programs in memory (§7.4 "cached").
	CacheBinaries bool
	// ZeroCopy routes the data plane through ownership moves instead of
	// copies (§6.1's future-work data path): statement outputs are
	// handed off out of the producing memory context (memctx.TakeOutputs
	// / memctx.HandoffOutput) and adopted by the consuming statement's
	// context (memctx.AdoptInputSet) without cloning item payloads, on
	// both the single-invoke and the chunked batch paths. Functions must
	// treat input items as immutable under this option — payloads may be
	// shared with other instances of the same batch.
	ZeroCopy bool
	// Balance starts the PI-controller core balancer.
	Balance bool
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
	// Autoscale starts the elasticity controller: a control loop that
	// grows and shrinks the compute pool from queue backlog and
	// dispatch-wait p99 (see internal/ctlplane), counted in
	// Stats.EngineResizes. It can be toggled at runtime via
	// SetAutoscale. Elasticity tunes it; by default the pool floats in
	// [ComputeEngines, 4×ComputeEngines].
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
	reg      *registry
	backend  isolation.Backend
	opts     Options
	programs *programCache

	// plans caches precompiled invocation plans by composition name
	// (see plan.go); entries are invalidated by registry generation.
	plans sync.Map

	computePool *engine.Pool
	commPool    *engine.Pool
	balancer    *controlplane.Balancer

	// The dynamic control plane (ctlplane.go): the elasticity
	// controller resizing the compute pool, the batch admission plane
	// whose clamp the control plane can override, and the drain gate
	// the invoke entry points check.
	elastic  *ctlplane.Elasticity
	adm      *autoscale.Admission
	draining atomic.Bool

	// The scheduling plane: all dispatches enter the engine queues
	// through these per-pool DRR schedulers, keyed by tenant.
	computeSched *sched.Scheduler
	commSched    *sched.Scheduler

	// ctrs holds every hot-path counter — invocation/batch admissions,
	// the data-plane set/byte counters, context-pool provenance —
	// sharded per goroutine affinity so concurrent invokes never
	// serialize on bookkeeping (see counters.go). Stats() merges lazily.
	ctrs *hotCounters

	// Memory gauges stay unsharded: the peak is a max over the summed
	// committed bytes, which needs the total order a single atomic
	// provides (rationale in counters.go).
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
	if opts.Backend == nil {
		b, err := isolation.New("cheri")
		if err != nil {
			return nil, err
		}
		opts.Backend = b
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
		reg:      newRegistry(),
		backend:  opts.Backend,
		opts:     opts,
		programs: newProgramCache(),
		ctrs:     newHotCounters(),
		adm:      autoscale.NewAdmission(autoscale.AdmissionConfig{}),
	}
	p.computePool = engine.NewPool(engine.Compute, engine.NewQueue())
	p.commPool = engine.NewPool(engine.Communication, engine.NewQueue())
	p.computePool.SetCount(opts.ComputeEngines)
	p.commPool.SetCount(opts.CommEngines)
	// The dispatch windows track pool sizes so the balancer's SetCount
	// re-assignments widen or narrow the refill allowance automatically.
	// Comm engines multiplex green threads, so their window is per-slot.
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
	if opts.Balance {
		p.balancer = controlplane.NewBalancer(controlplane.NewController(), p.computePool, p.commPool)
		p.balancer.Start()
	}
	if opts.Autoscale {
		ecfg := opts.Elasticity
		if ecfg.Min < 1 {
			ecfg.Min = opts.ComputeEngines
		}
		p.elastic = ctlplane.NewElasticity(ecfg, p.computePool, p.elasticSignals)
		p.elastic.Start()
	}
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

// Shutdown stops engines and the balancer, waiting for in-flight work.
// The schedulers close first so parked tasks are rejected instead of
// stranded behind a closing queue.
func (p *Platform) Shutdown() {
	if p.elastic != nil {
		p.elastic.Stop()
	}
	if p.balancer != nil {
		p.balancer.Stop()
	}
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
	return p.reg.addFunc(f, p.backend, p.opts.CacheBinaries, p.programs)
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
	// tasks; CachedPrograms is the decoded-binary cache population.
	ComputeCompleted uint64
	CommCompleted    uint64
	CachedPrograms   int
	// ZeroCopyHandoffs counts output/input sets that crossed a memory-
	// context boundary by ownership move (zero-copy handoff) instead of
	// by clone; ZeroCopyHandoffBytes is their summed payload size — the
	// bytes whose copy was avoided. Non-zero only with Options.ZeroCopy.
	ZeroCopyHandoffs     uint64
	ZeroCopyHandoffBytes uint64
	// CopiedSets / CopiedBytes are the copying-path counterparts: sets
	// and payload bytes cloned across context boundaries.
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
	// EngineResizes counts compute-pool resizes applied by the
	// elasticity controller (grows plus shrinks); 0 without
	// Options.Autoscale. AutoscaleOn reports the controller's runtime
	// switch, and Draining whether the node is refusing new invocations
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

// Stats reports current platform gauges. The hot-path counters are
// merged from their per-goroutine shards here, on the cold read, so
// the invoke path never serializes on them.
func (p *Platform) Stats() Stats {
	t := p.ctrs.merge()
	var jBytes int64
	if s, ok := p.jrnl.(journal.Sizer); ok {
		jBytes = s.Size()
	}
	tenants := sched.MergeStats(p.computeSched.Stats(), p.commSched.Stats())
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
		Invocations:      t.invocations,
		Batches:          t.batches,
		ComputeEngines:   p.computePool.Count(),
		CommEngines:      p.commPool.Count(),
		ComputeQueueLen:  p.computePool.Queue().Len(),
		CommQueueLen:     p.commPool.Queue().Len(),
		CommittedBytes:   p.memCommitted.Load(),
		PeakCommitted:    p.memPeak.Load(),
		ComputeCompleted: p.computePool.Completed(),
		CommCompleted:    p.commPool.Completed(),
		CachedPrograms:   p.programs.size(),
		EngineResizes:    p.EngineResizes(),
		AutoscaleOn:      p.AutoscaleOn(),
		Draining:         p.draining.Load(),

		ZeroCopyHandoffs:     t.zcHandoffs,
		ZeroCopyHandoffBytes: t.zcBytes,
		CopiedSets:           t.copiedSets,
		CopiedBytes:          t.copiedBytes,
		PooledContextReuses:  t.ctxReused,
		PooledContextAllocs:  t.ctxFresh,
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
	// memory (decoded wire buffers) leased under the given region. The
	// zero-copy data plane then adopts the payloads borrowed
	// (memctx.AdoptInputSetBorrowed): every compute context that
	// aliases them retains the region for the duration of its use, so
	// the owner's recycle hook cannot fire while the bytes are live.
	// The caller keeps its own reference until it has consumed the
	// results. Only InvokeBatch consults it, and it is ignored (and safe)
	// with ZeroCopy off — the copying path clones at the context boundary
	// and never aliases the lease.
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
// journaling. A failed keyed invocation — deadline-class included —
// releases its key, so a retry may re-execute.
func (p *Platform) Invoke(ctx context.Context, req Request) (map[string][]memctx.Item, error) {
	if p.draining.Load() {
		return nil, ErrDraining
	}
	comp, err := p.reg.composition(req.Composition)
	if err != nil {
		return nil, err
	}
	tenant := tenantOrDefault(req.Tenant)
	if req.Key != "" {
		outs, derr, execute := p.dedup.Reserve(req.Key)
		if !execute {
			return outs, derr
		}
		p.journalAppend(journal.Record{
			Kind: journal.KindInvokeBegin, Tenant: tenant, Comp: req.Composition, Key: req.Key,
			Digest: journal.DigestSets(req.Inputs),
		})
	}
	p.ctrs.shard().invocations.Add(1)
	outs, err := p.invoke(ctx, tenant, p.planFor(comp), req.Inputs, 0)
	if req.Key != "" {
		p.settleKey(tenant, req.Composition, req.Key, outs, err)
	}
	p.noteTimeout(err)
	return outs, err
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
// exchanged by reference: producers deposit the sets they harvested
// (private clones on the copying path, handed-off buffers under
// ZeroCopy) and consumers receive aliases — every value-semantics copy
// the copying data path owes is paid exactly once, at the context
// boundary (Context.AddInputSet / Context.SetOutputs) for compute
// functions, or at the gather (clone=true) for communication
// functions, which have no context.
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

func (s *valueStore) get(name string, clone bool) []memctx.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	items := s.vals[name]
	if !clone {
		return items
	}
	out := make([]memctx.Item, len(items))
	for i, it := range items {
		out[i] = it.Clone()
	}
	return out
}

func (s *valueStore) set(name string, items []memctx.Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[name] = items
}

func (p *Platform) invoke(ctx context.Context, tenant string, pl *compPlan, inputs map[string][]memctx.Item, depth int) (map[string][]memctx.Item, error) {
	if depth >= p.opts.MaxDepth {
		return nil, fmt.Errorf("%w (%d)", ErrTooDeep, p.opts.MaxDepth)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	comp := pl.comp
	store := getValueStore()
	defer putValueStore(store)
	for _, in := range comp.Inputs {
		items, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrMissingInput, in)
		}
		store.set(in, items)
	}

	done := make([]chan struct{}, len(comp.Stmts))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var firstErr error
	var errMu sync.Mutex
	var failed atomic.Bool
	setErr := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
		failed.Store(true)
	}

	var wg sync.WaitGroup
	for i := range comp.Stmts {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[i])
			for _, d := range pl.deps[i] {
				<-done[d]
			}
			if failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				setErr(err)
				return
			}
			if err := p.runStatement(ctx, tenant, &pl.stmts[i], store, depth); err != nil {
				setErr(pl.stmts[i].wrap(err))
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	out := make(map[string][]memctx.Item, len(comp.Outputs))
	for _, b := range comp.Outputs {
		out[b.Name] = store.get(b.Value, false)
	}
	return out, nil
}

// runStatement expands a statement into instances per the edge modes,
// executes them on the appropriate engines (scheduled under the tenant's
// DRR share), and merges outputs. The vertex, instance shape, and error
// label come precompiled from the statement's plan (plan.go).
func (p *Platform) runStatement(ctx context.Context, tenant string, sp *stmtPlan, store *valueStore, depth int) error {
	st := *sp.st
	v, err := p.resolveStmt(sp)
	if err != nil {
		return err
	}
	// The context deadline rides along on every engine dispatch below;
	// zero (no deadline) costs the scheduler a single IsZero check.
	deadline, _ := ctx.Deadline()

	// Gather argument items; decide skip (§4.4): any non-optional input
	// set with zero items suppresses execution, defining empty outputs.
	// For compute functions and nested compositions the gather aliases
	// the store's items — the one value-semantics clone each instance is
	// owed happens at the context boundary (AddInputSet), not here.
	// Communication functions have no memory context, so on the copying
	// path their one clone is paid here instead (under ZeroCopy they
	// receive aliases and must not mutate them, per the CommFunc
	// contract).
	cloneGather := v.comm != nil && !p.opts.ZeroCopy
	argItems := make([][]memctx.Item, len(st.Args))
	skip := false
	for ai, a := range st.Args {
		argItems[ai] = store.get(a.Value, cloneGather)
		if len(argItems[ai]) == 0 && !a.Optional {
			skip = true
		}
	}
	if skip {
		for _, r := range st.Rets {
			store.set(r.Value, nil)
		}
		return nil
	}

	var instances []instance
	if sp.broadcastOnly {
		// Precompiled shape: every arg broadcasts, exactly one instance.
		instances = []instance{singleInstance(st.Args, argItems)}
	} else if instances, err = expandInstances(st.Args, argItems); err != nil {
		return err
	}

	// Execute instances concurrently; collect outputs per instance to
	// keep merge order deterministic.
	results := make([][]memctx.Set, len(instances))
	errs := make([]error, len(instances))
	var wg sync.WaitGroup
	for idx, inst := range instances {
		idx, inst := idx, inst
		wg.Add(1)
		run := func() {
			defer wg.Done()
			outs, err := p.runInstance(ctx, tenant, v, st, inst, depth, nil)
			results[idx], errs[idx] = outs, err
		}
		reject := func(err error) {
			errs[idx] = err
			wg.Done()
		}
		switch {
		case v.comm != nil:
			if err := p.commSched.Submit(tenant, sched.Task{Do: run, OnReject: reject, Deadline: deadline, Bytes: instanceBytes(inst)}); err != nil {
				reject(err)
			}
		case v.fn != nil:
			// Compute tasks run on an engine with a stable shard index;
			// hand it through so counter ticks hit a fixed shard instead
			// of re-deriving one per call.
			runOn := func(shard int) {
				defer wg.Done()
				outs, err := p.runInstance(ctx, tenant, v, st, inst, depth, p.ctrs.shardAt(shard))
				results[idx], errs[idx] = outs, err
			}
			if err := p.computeSched.Submit(tenant, sched.Task{DoSharded: runOn, OnReject: reject, Deadline: deadline, Bytes: instanceBytes(inst)}); err != nil {
				reject(err)
			}
		default:
			// Nested composition: orchestrated inline by the dispatcher
			// green thread; its statements use the engines themselves.
			go run()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Merge instance outputs in instance order under each Ret binding.
	for _, r := range st.Rets {
		var merged []memctx.Item
		for _, outs := range results {
			for _, s := range outs {
				if s.Name == r.Set {
					merged = append(merged, s.Items...)
				}
			}
		}
		store.set(r.Value, merged)
	}
	return nil
}

// instance is one function instantiation: the input sets it receives.
type instance []memctx.Set

// expandInstances applies the all/each/key distribution keywords. Args
// in `all` mode broadcast to every instance; `each`/`key` args split
// into groups. All split args must agree on the group count (or be
// broadcast), matching co-partitioned zip semantics.
func expandInstances(args []graph.Arg, items [][]memctx.Item) ([]instance, error) {
	type argGroups struct {
		groups [][]memctx.Item
	}
	split := make([]argGroups, len(args))
	n := 1
	for ai, a := range args {
		switch a.Mode {
		case graph.All:
			split[ai].groups = [][]memctx.Item{items[ai]}
		case graph.Each:
			gs := make([][]memctx.Item, len(items[ai]))
			for i := range items[ai] {
				gs[i] = items[ai][i : i+1]
			}
			split[ai].groups = gs
		case graph.Key:
			sets := memctx.GroupByKey(memctx.Set{Name: a.Param, Items: items[ai]})
			gs := make([][]memctx.Item, len(sets))
			for i := range sets {
				gs[i] = sets[i].Items
			}
			split[ai].groups = gs
		default:
			return nil, fmt.Errorf("core: unknown distribution mode %v", a.Mode)
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

// runInstance executes one instance of a vertex. It is called on an
// engine worker (compute or communication) or, for nested compositions,
// on a dispatcher goroutine. sh, when non-nil, is the engine's stable
// counter shard; nil callers (comm engines, nested compositions) let
// the compute path derive one.
func (p *Platform) runInstance(ctx context.Context, tenant string, v vertex, st graph.Stmt, inst instance, depth int, sh *hotShard) ([]memctx.Set, error) {
	// The scheduler drops entries that expire parked in its backlog, but
	// a task can also outlive its deadline queued at the engine after
	// dispatch; checking here keeps dead work from occupying an engine.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch {
	case v.comm != nil:
		return v.comm.Invoke(inst)
	case v.fn != nil:
		return p.runCompute(v.fn, inst, sh)
	default:
		childInputs := make(map[string][]memctx.Item, len(inst))
		for _, s := range inst {
			childInputs[s.Name] = s.Items
		}
		childOut, err := p.invoke(ctx, tenant, p.planFor(v.comp), childInputs, depth+1)
		if err != nil {
			return nil, err
		}
		sets := make([]memctx.Set, 0, len(childOut))
		for name, items := range childOut {
			sets = append(sets, memctx.Set{Name: name, Items: items})
		}
		return sets, nil
	}
}

// funcMemBytes resolves a function's declared context limit.
func funcMemBytes(f *registeredFunc) int {
	if f.MemBytes > 0 {
		return f.MemBytes
	}
	return memctx.DefaultLimit
}

// runCompute prepares an isolated memory context (recycled through the
// memctx pool), executes the function under the configured backend,
// harvests outputs, and recycles the context.
func (p *Platform) runCompute(f *registeredFunc, inst instance, sh *hotShard) ([]memctx.Set, error) {
	ctx, reused := memctx.NewPooled(funcMemBytes(f))
	if sh == nil {
		sh = p.ctrs.shard()
	}
	if reused {
		sh.ctxReused.Add(1)
	} else {
		sh.ctxFresh.Add(1)
	}
	outs, err := p.runComputeIn(ctx, f, f.prepared, inst, nil, sh)
	// Safe to recycle in both data-plane modes: harvested outputs were
	// moved out of (or cloned by) the context, and their payloads are
	// independent heap buffers, never region-backed.
	memctx.Recycle(ctx)
	return outs, err
}

// runComputeIn executes one instance inside the provided context, which
// the batch path reuses (via Reset) across the instances of a chunk.
// prepared, when non-nil, skips the per-execution binary decode.
//
// The data plane has two modes, and in both each boundary crossing
// costs at most one memcpy. The copying path (default) clones the
// instance's input sets into the context (AddInputSet — the copy into
// the function's memory, preserving value semantics), lets the function
// read the context's private copy in place (ShareInputSets — the
// context IS the function's memory; re-cloning it for the function
// would be a second copy the model doesn't charge), clones the outputs
// into the context (SetOutputs — the copy out of the function's
// memory), and moves that clone to the dispatcher without another copy
// (TakeOutputs). Under Options.ZeroCopy even those two clones become
// ownership moves: inputs are adopted (AdoptInputSet) and outputs
// handed off (AdoptOutputs + TakeOutputs), so the dispatcher — and
// through it the consuming statement's context, also across chunk
// boundaries within one batch — receives the producer's buffers.
//
// borrow, when non-nil, is the wire-memory lease of the request the
// instance belongs to (Request.Borrow): zero-copy input adoption
// then goes through AdoptInputSetBorrowed, so the context retains the
// lease until its Reset/Recycle and the decoder slabs the inputs alias
// cannot be recycled mid-execution.
func (p *Platform) runComputeIn(ctx *memctx.Context, f *registeredFunc, prepared *dvm.Program, inst instance, borrow *memctx.Region, sh *hotShard) (outs []memctx.Set, err error) {
	memBytes := funcMemBytes(f)
	for _, s := range inst {
		if p.opts.ZeroCopy {
			if err := ctx.AdoptInputSetBorrowed(s, borrow); err != nil {
				return nil, err
			}
			sh.zcHandoffs.Add(1)
			sh.zcBytes.Add(uint64(s.TotalBytes()))
		} else {
			if err := ctx.AddInputSet(s); err != nil {
				return nil, err
			}
			sh.copiedSets.Add(1)
			sh.copiedBytes.Add(uint64(s.TotalBytes()))
		}
	}
	charge := int64(ctx.CommittedBytes())
	p.chargeMemory(charge)
	defer p.releaseMemory(&charge)

	// Both modes read the context's sets in place. On the copying path
	// these are the context's private clones (the function may scribble
	// on them; the context is reset or recycled after harvest); under
	// ZeroCopy they are shared payloads the function must treat as
	// immutable.
	funcInputs := ctx.ShareInputSets
	if f.Go != nil {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("core: function %q crashed: %v", f.Name, r)
				outs = nil
			}
		}()
		outs, err = f.Go(funcInputs())
	} else {
		task := isolation.Task{
			Binary:   f.Binary,
			Prepared: prepared,
			MemBytes: memBytes,
			Inputs:   funcInputs(),
			GasLimit: f.GasLimit,
		}
		outs, err = p.backend.Execute(task)
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
	if p.opts.ZeroCopy {
		if err := ctx.AdoptOutputs(outs); err != nil {
			return nil, err
		}
	} else if err := ctx.SetOutputs(outs); err != nil {
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
		if p.opts.ZeroCopy {
			sh.zcHandoffs.Add(1)
			sh.zcBytes.Add(uint64(s.TotalBytes()))
		} else {
			sh.copiedSets.Add(1)
			sh.copiedBytes.Add(uint64(s.TotalBytes()))
		}
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

// The executor. Invoke and InvokeBatch both run here: Invoke is a batch
// of one request. A batch's requests are grouped by composition and
// tenant, and each group walks the composition DAG together. A
// statement runs on the goroutine that finished its last dependency, so
// a chain of statements runs entirely on the caller's goroutine; only a
// statement made ready beside another starts a goroutine of its own,
// and independent statements still overlap. At each statement, the
// instances of every live request in the group are gathered into one
// flat work list. Compute instances run in per-engine
// chunks, back-to-back on one compute engine against a single reused
// memory context, so a batch pays one queue round trip and one context
// per chunk instead of per instance. Communication instances go to the
// communication engines one task each, and nested-composition instances
// recurse into the walker as one group one level deeper.
//
// Payloads are never copied between statements: a chunk's per-statement
// output sets are taken out of the producing context
// (memctx.TakeOutputs) into the per-request value store, and the
// consuming statement's instances adopt them
// (memctx.AdoptInputSetBorrowed) — including across chunk boundaries,
// when the producing and consuming chunks run on different engines. A
// taken set is gone from its producer, which has no method to read or
// release it again; see docs/ARCHITECTURE.md for the data-path map.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dandelion/internal/graph"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
)

// InvokeBatch runs a batch of composition requests, returning one
// result per request in request order. Requests naming the same
// composition under the same tenant execute together; distinct groups
// proceed concurrently, each scheduled in its tenant's DRR share. The
// context's deadline rides on every dispatch (expired work is dropped
// unexecuted by the scheduling plane), cancellation stops new
// statements, and deadline-class per-request failures tick
// Stats.TimedOut.
func (p *Platform) InvokeBatch(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	if p.draining.Load() {
		for i := range results {
			results[i].Err = ErrDraining
		}
		return results
	}
	p.batches.Add(1)
	p.dispatch(ctx, reqs, results)
	return results
}

// dispatch runs reqs into results: the one executor behind Invoke and
// InvokeBatch.
func (p *Platform) dispatch(ctx context.Context, reqs []Request, results []Result) {
	// Resolve keyed requests against the dedup table first: duplicates
	// are answered in place (kb.skip masks them out of execution),
	// fresh keys are reserved and journaled. Unkeyed requests (kb ==
	// nil) pay nothing here.
	kb := p.beginKeyedBatch(reqs, results)

	// Group requests by (composition, tenant), preserving first-seen
	// order. Tenant is part of the key so one group's tasks are
	// attributable to exactly one tenant's dispatch share. Every Invoke,
	// and most batches, make one group; it lives on the stack.
	var one [1]batchGroup
	groups := one[:0]
	for i, r := range reqs {
		if kb != nil && kb.skip[i] {
			continue
		}
		tenant := tenantOrDefault(r.Tenant)
		g := 0
		for g < len(groups) && (groups[g].comp != r.Composition || groups[g].tenant != tenant) {
			g++
		}
		if g == len(groups) {
			groups = append(groups, batchGroup{comp: r.Composition, tenant: tenant})
		}
		groups[g].reqs = append(groups[g].reqs, groupReq{idx: i, inputs: r.Inputs, borrow: r.Borrow})
	}
	runnable := groups[:0]
	for _, g := range groups {
		comp, err := p.reg.composition(g.comp)
		if err != nil {
			for _, q := range g.reqs {
				results[q.idx].Err = err
			}
			continue
		}
		p.invocations.Add(uint64(len(g.reqs)))
		g.pl = p.planFor(comp)
		runnable = append(runnable, g)
	}

	if len(runnable) > 0 {
		p.runGroups(ctx, runnable)
	}
	for _, g := range runnable {
		for _, q := range g.reqs {
			results[q.idx].Outputs, results[q.idx].Err = q.out, q.err
		}
	}
	if kb != nil {
		p.finishKeyedBatch(kb, reqs, results)
	}
	for i := range results {
		p.noteTimeout(results[i].Err)
	}
}

// batchGroup is the requests of one batch that name one composition
// under one tenant.
type batchGroup struct {
	comp, tenant string
	pl           *compPlan
	reqs         []groupReq
}

// groupReq is one request of a group: its inputs and lease on the way
// in, its dataflow values during the walk, and its outputs or first
// error on the way out.
type groupReq struct {
	// idx is the request's index in its batch; nested instances leave
	// it zero.
	idx    int
	inputs map[string][]memctx.Item
	// borrow is the request's wire-memory lease (Request.Borrow), nil
	// without one; compute instances of the request adopt their inputs
	// under it.
	borrow *memctx.Region
	store  *valueStore
	out    map[string][]memctx.Item
	// err is guarded by batchState.mu while the walk runs.
	err error
}

// runGroups runs every group but the last on its own goroutine and the
// last on the caller's, so a batch of one group — every Invoke — starts
// no goroutine here.
func (p *Platform) runGroups(ctx context.Context, groups []batchGroup) {
	last := len(groups) - 1
	if last > 0 {
		var wg sync.WaitGroup
		for _, g := range groups[:last] {
			wg.Add(1)
			go func(g batchGroup) {
				defer wg.Done()
				p.invokeBatch(ctx, g.tenant, g.pl, g.reqs, 0)
			}(g)
		}
		defer wg.Wait()
	}
	g := groups[last]
	p.invokeBatch(ctx, g.tenant, g.pl, g.reqs, 0)
}

// batchState is one group's walk through one composition: the group's
// requests, and per statement the count of its dependencies that have
// not finished yet.
type batchState struct {
	p      *Platform
	ctx    context.Context
	tenant string
	pl     *compPlan
	depth  int
	reqs   []groupReq
	mu     sync.Mutex // guards reqs[r].err
	// pending[i] reaches zero when statement i's last dependency
	// finishes; the goroutine that brings it there runs or starts i.
	pending []atomic.Int32
	// wg covers the goroutines the walk started, not the caller's.
	wg sync.WaitGroup
}

func (b *batchState) fail(r int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.reqs[r].err == nil {
		b.reqs[r].err = err
	}
}

// failAll fails every request that has not failed yet.
func (b *batchState) failAll(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for r := range b.reqs {
		if b.reqs[r].err == nil {
			b.reqs[r].err = err
		}
	}
}

// alive reports whether request r has not failed yet.
func (b *batchState) alive(r int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reqs[r].err == nil
}

// invokeBatch runs a group of requests through one composition under
// one tenant at nesting depth depth, and fills in each request's
// outputs or error. A statement runs on the goroutine that finished its
// last dependency: a chain of statements runs entirely on the caller's
// goroutine, and only a statement that becomes ready beside another
// starts a goroutine of its own, so independent statements still
// overlap. Orchestration state — the dependency graph, vertices, error
// labels — comes precompiled from the plan.
func (p *Platform) invokeBatch(ctx context.Context, tenant string, pl *compPlan, reqs []groupReq, depth int) {
	if depth >= p.opts.MaxDepth {
		err := fmt.Errorf("%w (%d)", ErrTooDeep, p.opts.MaxDepth)
		for r := range reqs {
			reqs[r].err = err
		}
		return
	}
	comp := pl.comp
	for r := range reqs {
		q := &reqs[r]
		q.store = getValueStore()
		for _, in := range comp.Inputs {
			items, ok := q.inputs[in]
			if !ok {
				q.err = fmt.Errorf("%w: %q", ErrMissingInput, in)
				break
			}
			q.store.set(in, items)
		}
	}

	b := &batchState{p: p, ctx: ctx, tenant: tenant, pl: pl, depth: depth, reqs: reqs,
		pending: make([]atomic.Int32, len(pl.stmts))}
	for i := range b.pending {
		b.pending[i].Store(pl.indeg[i])
	}
	if roots := pl.roots; len(roots) > 0 {
		for _, si := range roots[1:] {
			b.start(si)
		}
		b.runFrom(roots[0])
	}
	b.wg.Wait()

	for r := range reqs {
		q := &reqs[r]
		if q.err == nil {
			q.out = make(map[string][]memctx.Item, len(comp.Outputs))
			for _, o := range comp.Outputs {
				q.out[o.Name] = q.store.get(o.Value)
			}
		}
		putValueStore(q.store)
		q.store = nil
	}
}

// start runs statement si, and whatever it makes ready, on a new
// goroutine.
func (b *batchState) start(si int) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.runFrom(si)
	}()
}

// runFrom runs statement si, then counts it off its dependents. The
// first dependent it makes ready runs next on this goroutine; every
// further one starts on its own.
func (b *batchState) runFrom(si int) {
	for si >= 0 {
		b.runStatement(si)
		next := -1
		for _, d := range b.pl.dependents[si] {
			if b.pending[d].Add(-1) != 0 {
				continue
			}
			if next < 0 {
				next = d
			} else {
				b.start(d)
			}
		}
		si = next
	}
}

// batchItem is one function instance within a batched statement.
type batchItem struct {
	req    int
	inst   instance
	borrow *memctx.Region
	// bytes is the instance's cumulative input payload size, the weight
	// the byte-aware chunk split balances on.
	bytes int64
	outs  []memctx.Set
	err   error
}

// instanceBytes sums an instance's input payload bytes.
func instanceBytes(inst instance) int64 {
	var n int64
	for _, s := range inst {
		n += int64(s.TotalBytes())
	}
	return n
}

// batchItemsPool recycles the flat per-statement work lists the batch
// path gathers (one entry per live instance, rebuilt at every
// statement). Entries are cleared before a list returns to the pool so
// recycled backing arrays never pin instance inputs or harvested
// outputs, and lists grown past maxPooledBatchItems by one huge batch
// are dropped instead of pinned warm (the memctx region-cap rule).
var batchItemsPool = sync.Pool{New: func() any { return new([]batchItem) }}

const maxPooledBatchItems = 4096

// runStatement executes one statement for every live request in the
// group. It gathers every live request's instances into one flat work
// list and runs the list by vertex kind: compute instances in
// per-engine chunks, communication instances one task each on the
// communication engines, and nested-composition instances as one group
// one level deeper.
func (b *batchState) runStatement(si int) {
	p, ctx := b.p, b.ctx
	sp := &b.pl.stmts[si]
	st := sp.st
	wrap := sp.wrap
	if err := ctx.Err(); err != nil {
		b.failAll(err)
		return
	}
	v, err := p.resolveStmt(sp)
	if err != nil {
		b.failAll(wrap(err))
		return
	}

	// The work list is recycled through batchItemsPool. The gather
	// aliases the store's items; the instances adopt the producer's
	// handed-off buffers.
	itemsBuf := batchItemsPool.Get().(*[]batchItem)
	items := (*itemsBuf)[:0]
	defer func() {
		if cap(items) > maxPooledBatchItems {
			return // oversized: leave it to the GC
		}
		clear(items)
		*itemsBuf = items[:0]
		batchItemsPool.Put(itemsBuf)
	}()
	var totalBytes int64
	for r := range b.reqs {
		if !b.alive(r) {
			continue
		}
		q := &b.reqs[r]
		// args holds each argument's whole value; for a broadcast-only
		// statement it is the statement's one instance. §4.4: any
		// non-optional input set with zero items suppresses execution,
		// defining empty outputs.
		args := make(instance, len(st.Args))
		skip := false
		for ai, a := range st.Args {
			args[ai] = memctx.Set{Name: a.Param, Items: q.store.get(a.Value)}
			if len(args[ai].Items) == 0 && !a.Optional {
				skip = true
			}
		}
		if skip {
			for _, ret := range st.Rets {
				q.store.set(ret.Value, nil)
			}
			continue
		}
		insts := []instance{args}
		if !sp.broadcastOnly {
			if insts, err = expandInstances(st.Args, args); err != nil {
				b.fail(r, wrap(err))
				continue
			}
		}
		for _, inst := range insts {
			n := instanceBytes(inst)
			totalBytes += n
			items = append(items, batchItem{req: r, inst: inst, borrow: q.borrow, bytes: n})
		}
	}
	if len(items) == 0 {
		return
	}

	switch {
	case v.fn != nil:
		p.runComputeItems(ctx, b.tenant, v.fn, items, totalBytes)
	case v.comm != nil:
		p.runCommItems(ctx, b.tenant, v.comm, items)
	default:
		p.runNestedItems(ctx, b.tenant, p.planFor(v.comp), items, b.depth)
	}

	// A request's instances sit contiguously in the work list. Per
	// request: surface the first instance error, or merge outputs in
	// instance order under each Ret binding.
	for lo, hi := 0, 0; lo < len(items); lo = hi {
		r := items[lo].req
		for hi = lo; hi < len(items) && items[hi].req == r; hi++ {
		}
		b.settle(st, wrap, r, items[lo:hi])
	}
}

// settle records one request's share of a statement: its first instance
// error, or its instances' outputs merged in instance order under each
// Ret binding. A binding that one set fills aliases that set's items;
// the full slice expression makes a later append copy them.
func (b *batchState) settle(st *graph.Stmt, wrap func(error) error, r int, insts []batchItem) {
	for i := range insts {
		if insts[i].err != nil {
			b.fail(r, wrap(insts[i].err))
			return
		}
	}
	store := b.reqs[r].store
	for _, ret := range st.Rets {
		var merged []memctx.Item
		for i := range insts {
			for _, s := range insts[i].outs {
				if s.Name != ret.Set || len(s.Items) == 0 {
					continue
				}
				if merged == nil {
					merged = s.Items[:len(s.Items):len(s.Items)]
				} else {
					merged = append(merged, s.Items...)
				}
			}
		}
		store.set(ret.Value, merged)
	}
}

// runComputeItems splits a statement's compute work list into
// contiguous chunks and runs each chunk to completion on a single
// engine. Solo tenants get one chunk per compute engine (maximum
// per-chunk amortization of the reused context); a tenant contending
// for the engines gets chunks sized down by its DRR share, so the
// scheduler can interleave other tenants' work between its chunks and
// dispatch-wait tails tighten. Both the chunk count and the split
// boundaries are byte-aware: the count grows so no chunk carries more
// than ~chunkByteTarget of payload, and boundaries balance cumulative
// bytes rather than item count, so one 1 MiB instance weighs as much as
// thousands of tiny ones and an engine never serializes a byte-heavy
// chunk while its peers idle over light ones.
func (p *Platform) runComputeItems(ctx context.Context, tenant string, f *registeredFunc, items []batchItem, totalBytes int64) {
	deadline, _ := ctx.Deadline()
	chunks := p.schedAwareChunks(tenant, len(items), totalBytes)
	bounds := chunkBoundsByBytes(items, chunks, totalBytes)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		seg := items[bounds[c]:bounds[c+1]]
		var segBytes int64
		for i := range seg {
			segBytes += seg[i].bytes
		}
		reject := func(err error) {
			for i := range seg {
				seg[i].err = err
			}
			wg.Done()
		}
		wg.Add(1)
		task := sched.Task{
			Do: func() {
				defer wg.Done()
				p.runComputeChunk(ctx, f, seg)
			},
			OnReject: reject,
			Deadline: deadline,
			Bytes:    segBytes,
		}
		if err := p.computeSched.Submit(tenant, task); err != nil {
			reject(err)
		}
	}
	wg.Wait()
}

// runCommItems submits a statement's communication work list to the
// communication engines, one task per instance: a communication engine
// multiplexes its tasks, so chunking would only serialize their I/O.
func (p *Platform) runCommItems(ctx context.Context, tenant string, f CommFunc, items []batchItem) {
	deadline, _ := ctx.Deadline()
	var wg sync.WaitGroup
	for i := range items {
		it := &items[i]
		reject := func(err error) {
			it.err = err
			wg.Done()
		}
		wg.Add(1)
		task := sched.Task{
			Do: func() {
				defer wg.Done()
				// The scheduler drops entries that expire parked in its
				// backlog; this drops those that expired queued at the
				// engine after dispatch.
				if it.err = ctx.Err(); it.err == nil {
					it.outs, it.err = runComm(f, it.inst)
				}
			},
			OnReject: reject,
			Deadline: deadline,
			Bytes:    it.bytes,
		}
		if err := p.commSched.Submit(tenant, task); err != nil {
			reject(err)
		}
	}
	wg.Wait()
}

// runComm invokes a communication function on one instance. As in
// runComputeIn, a panic fails this invocation, never the communication
// engine and with it the process.
func runComm(f CommFunc, inst instance) (outs []memctx.Set, err error) {
	defer func() {
		if r := recover(); r != nil {
			outs, err = nil, fmt.Errorf("core: function %q crashed: %v", f.Name(), r)
		}
	}()
	return f.Invoke(inst)
}

// runNestedItems runs a statement's nested-composition instances as one
// group one level deeper: each instance is a request whose inputs are
// its argument sets, under the lease of the request it belongs to.
func (p *Platform) runNestedItems(ctx context.Context, tenant string, pl *compPlan, items []batchItem, depth int) {
	reqs := make([]groupReq, len(items))
	for i := range items {
		inputs := make(map[string][]memctx.Item, len(items[i].inst))
		for _, s := range items[i].inst {
			inputs[s.Name] = s.Items
		}
		reqs[i] = groupReq{inputs: inputs, borrow: items[i].borrow}
	}
	p.invokeBatch(ctx, tenant, pl, reqs, depth+1)
	for i := range items {
		if items[i].err = reqs[i].err; reqs[i].err != nil {
			continue
		}
		for name, its := range reqs[i].out {
			items[i].outs = append(items[i].outs, memctx.Set{Name: name, Items: its})
		}
	}
}

// chunkByteTarget bounds the cumulative instance-input bytes one chunk
// should carry (4 MiB, the memctx pool-retention cap): a chunk past the
// target would grow its reused context beyond what the pool keeps warm,
// and — because a chunk runs to completion on one engine — would hold
// that engine for the whole byte-heavy run while the scheduler has no
// seam to interleave another tenant.
const chunkByteTarget = 4 << 20

// schedAwareChunks sizes the chunk split of a batched statement's
// work list. The floor is one chunk per compute engine — the PR-1
// amortization sweet spot for a tenant running alone. When the tenant
// shares the compute plane (other tenants have queued or running
// work), its chunk count scales up by the inverse of its DRR dispatch
// share — more, smaller chunks — bounded at 4× the engine count so
// per-chunk amortization never collapses entirely. On top of both, the
// count grows until no chunk averages more than chunkByteTarget of
// payload (uncapped — byte pressure, unlike contention, does not
// amortize away), so large-payload work lists split fine-grained
// enough to interleave and to keep reused contexts pool-sized.
func (p *Platform) schedAwareChunks(tenant string, items int, bytes int64) int {
	engines := p.computePool.Count()
	if engines < 1 {
		engines = 1
	}
	chunks := engines
	if share := p.computeSched.Share(tenant); share < 1 {
		chunks = int(float64(engines)/share + 0.5)
		if cap := 4 * engines; chunks > cap {
			chunks = cap
		}
	}
	if byBytes := int((bytes + chunkByteTarget - 1) / chunkByteTarget); byBytes > chunks {
		chunks = byBytes
	}
	if chunks > items {
		chunks = items
	}
	return chunks
}

// chunkBoundsByBytes splits items into chunks contiguous segments of
// roughly equal cumulative payload bytes, returning chunks+1 segment
// boundaries. Every segment is non-empty (callers guarantee chunks ≤
// len(items)); a work list with no payload bytes at all falls back to
// an even count split.
func chunkBoundsByBytes(items []batchItem, chunks int, total int64) []int {
	bounds := make([]int, chunks+1)
	if total <= 0 {
		for c := 1; c < chunks; c++ {
			bounds[c] = c * len(items) / chunks
		}
		bounds[chunks] = len(items)
		return bounds
	}
	var cum int64
	idx := 0
	for c := 0; c < chunks; c++ {
		bounds[c] = idx
		// Leave at least one item for each remaining chunk; within that,
		// advance until this chunk covers an even share of the bytes
		// still unassigned. Rebalancing on the remainder (rather than a
		// fixed total/chunks prefix target) keeps one oversized item
		// from starving every later chunk down to its one-item minimum.
		maxEnd := len(items) - (chunks - 1 - c)
		left := int64(chunks - c)
		target := cum + (total-cum+left-1)/left
		idx++ // every chunk takes at least one item
		cum += items[idx-1].bytes
		for idx < maxEnd && cum < target {
			cum += items[idx].bytes
			idx++
		}
	}
	bounds[chunks] = len(items)
	return bounds
}

// runComputeChunk executes a chunk of same-function instances
// back-to-back on the calling compute engine, reusing one pooled
// memory context (Reset between instances, Recycle at the end). Reuse
// is safe: each instance's output sets are taken out of the context
// (ownership moved to the dispatcher) before the next instance Resets
// it, and the payloads are either independent heap buffers or — for
// borrowed wire memory — leased under a memctx.Region whose owner holds
// a reference until the results are consumed, so neither Reset nor a
// later pooled reuse can invalidate them.
func (p *Platform) runComputeChunk(ctx context.Context, f *registeredFunc, seg []batchItem) {
	// The scheduler drops chunks that expire parked in its backlog; this
	// drops those that expired queued at the engine after dispatch.
	if err := ctx.Err(); err != nil {
		for i := range seg {
			seg[i].err = err
		}
		return
	}
	mc, reused := memctx.NewPooled(funcMemBytes(f))
	if reused {
		p.ctxReused.Add(1)
	} else {
		p.ctxFresh.Add(1)
	}
	for i := range seg {
		if i > 0 {
			mc.Reset()
		}
		seg[i].outs, seg[i].err = p.runComputeIn(mc, f, seg[i].inst, seg[i].borrow)
	}
	memctx.Recycle(mc)
}

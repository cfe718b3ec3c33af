// Batched invocation path. InvokeBatch admits N composition requests in
// one call and drives them through the composition DAG together: at each
// statement, the compute-function instances of every request in the
// batch are gathered, split into per-engine chunks, and each chunk runs
// back-to-back on one compute engine against a single reused memory
// context. Compared with N independent Invoke calls this removes
// per-instance queue round trips and context allocations — the hot path
// the serving harness in internal/loadgen measures.
//
// Payloads are never copied between statements: a chunk's per-statement
// output sets are handed off out of the producing context
// (memctx.TakeOutputs, the dispatcher-mediated form of
// memctx.HandoffOutput) into the per-request value store, and the
// consuming statement's instances adopt them (memctx.AdoptInputSet) —
// including across chunk boundaries, when the producing and consuming
// chunks run on different engines. Ownership tracking in memctx
// guarantees a handed-off set is never re-read from or re-released by
// its producer; see docs/ARCHITECTURE.md for the data-path map.
package core

import (
	"context"
	"fmt"
	"sync"

	"dandelion/internal/memctx"
	"dandelion/internal/sched"
)

// InvokeBatch runs a batch of composition requests, returning one
// result per request in request order. Requests naming the same
// composition under the same tenant execute together through the
// batched dispatch path; distinct groups proceed concurrently, each
// scheduled in its tenant's DRR share. The context's deadline rides on
// every chunk dispatch (expired chunks are dropped unexecuted by the
// scheduling plane), cancellation stops new statements, and
// deadline-class per-request failures tick Stats.TimedOut.
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
	p.ctrs.shard().batches.Add(1)

	// Resolve keyed requests against the dedup table first: duplicates
	// are answered in place (kb.skip masks them out of execution),
	// fresh keys are reserved and journaled. Unkeyed batches (kb ==
	// nil) pay nothing here.
	kb := p.beginKeyedBatch(reqs, results)

	// Group request indices by (composition, tenant), preserving
	// first-seen order. Tenant is part of the key so one group's chunk
	// tasks are attributable to exactly one tenant's dispatch share.
	type groupKey struct{ comp, tenant string }
	groups := map[groupKey][]int{}
	var order []groupKey
	for i, r := range reqs {
		if kb != nil && kb.skip[i] {
			continue
		}
		key := groupKey{comp: r.Composition, tenant: tenantOrDefault(r.Tenant)}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}

	var wg sync.WaitGroup
	for _, key := range order {
		idxs := groups[key]
		comp, err := p.reg.composition(key.comp)
		if err != nil {
			for _, i := range idxs {
				results[i].Err = err
			}
			continue
		}
		p.ctrs.shard().invocations.Add(uint64(len(idxs)))
		wg.Add(1)
		go func(tenant string, pl *compPlan, idxs []int) {
			defer wg.Done()
			inputs := make([]map[string][]memctx.Item, len(idxs))
			var borrows []*memctx.Region
			for k, i := range idxs {
				inputs[k] = reqs[i].Inputs
				if reqs[i].Borrow != nil && borrows == nil {
					borrows = make([]*memctx.Region, len(idxs))
				}
			}
			if borrows != nil {
				for k, i := range idxs {
					borrows[k] = reqs[i].Borrow
				}
			}
			outs, errs := p.invokeBatch(ctx, tenant, pl, inputs, borrows)
			for k, i := range idxs {
				results[i].Outputs, results[i].Err = outs[k], errs[k]
			}
		}(key.tenant, p.planFor(comp), idxs)
	}
	wg.Wait()
	if kb != nil {
		p.finishKeyedBatch(kb, reqs, results)
	}
	for i := range results {
		p.noteTimeout(results[i].Err)
	}
	return results
}

// batchState tracks the per-request dataflow of one composition group.
type batchState struct {
	stores []*valueStore
	// borrows, when non-nil, carries each request's wire-memory lease
	// (Request.Borrow, parallel to stores); compute instances of
	// the request adopt their inputs under it.
	borrows []*memctx.Region
	mu      sync.Mutex
	errs    []error
}

// borrow returns request r's lease, nil when the batch carries none.
func (b *batchState) borrow(r int) *memctx.Region {
	if b.borrows == nil {
		return nil
	}
	return b.borrows[r]
}

func (b *batchState) fail(r int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.errs[r] == nil {
		b.errs[r] = err
	}
}

func (b *batchState) failed(r int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.errs[r] != nil
}

// live returns the requests that have not failed yet.
func (b *batchState) live() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]int, 0, len(b.errs))
	for r, err := range b.errs {
		if err == nil {
			out = append(out, r)
		}
	}
	return out
}

// invokeBatch mirrors invoke for a group of requests running the same
// composition under one tenant: one goroutine per statement (shared
// across the group, honoring DAG dependencies), with compute statements
// executed through the chunked batch path. Orchestration state — deps,
// vertices, error labels — comes precompiled from the plan.
func (p *Platform) invokeBatch(ctx context.Context, tenant string, pl *compPlan, inputs []map[string][]memctx.Item, borrows []*memctx.Region) ([]map[string][]memctx.Item, []error) {
	comp := pl.comp
	n := len(inputs)
	st := &batchState{stores: make([]*valueStore, n), borrows: borrows, errs: make([]error, n)}
	defer func() {
		for _, s := range st.stores {
			putValueStore(s)
		}
	}()
	for r := 0; r < n; r++ {
		st.stores[r] = getValueStore()
		for _, in := range comp.Inputs {
			items, ok := inputs[r][in]
			if !ok {
				st.errs[r] = fmt.Errorf("%w: %q", ErrMissingInput, in)
				break
			}
			st.stores[r].set(in, items)
		}
	}

	done := make([]chan struct{}, len(comp.Stmts))
	for i := range done {
		done[i] = make(chan struct{})
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
			p.runStatementBatch(ctx, tenant, pl, i, st)
		}()
	}
	wg.Wait()

	outs := make([]map[string][]memctx.Item, n)
	for r := 0; r < n; r++ {
		if st.errs[r] != nil {
			continue
		}
		out := make(map[string][]memctx.Item, len(comp.Outputs))
		for _, b := range comp.Outputs {
			out[b.Name] = st.stores[r].get(b.Value)
		}
		outs[r] = out
	}
	return outs, st.errs
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

// runStatementBatch executes one statement for every live request in
// the group. Compute functions take the chunked batch path; everything
// else (communication functions, nested compositions) falls back to the
// per-request dispatcher logic.
func (p *Platform) runStatementBatch(ctx context.Context, tenant string, pl *compPlan, si int, bst *batchState) {
	sp := &pl.stmts[si]
	st := *sp.st
	live := bst.live()
	if len(live) == 0 {
		return
	}
	wrap := sp.wrap
	if err := ctx.Err(); err != nil {
		for _, r := range live {
			bst.fail(r, err)
		}
		return
	}
	v, err := p.resolveStmt(sp)
	if err != nil {
		for _, r := range live {
			bst.fail(r, wrap(err))
		}
		return
	}
	deadline, _ := ctx.Deadline()

	if v.fn == nil {
		// Communication function or nested composition: reuse the
		// per-request statement path (comm instances still flow through
		// the communication engines' queue; nested compositions
		// orchestrate inline on dispatcher goroutines).
		var wg sync.WaitGroup
		for _, r := range live {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := p.runStatement(ctx, tenant, sp, bst.stores[r], 0); err != nil {
					bst.fail(r, wrap(err))
				}
			}()
		}
		wg.Wait()
		return
	}

	// Compute path: gather every live request's instances into one flat
	// work list (recycled through batchItemsPool). The gather aliases the
	// store's items; the instances adopt the producer's handed-off
	// buffers.
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
	perReq := map[int][]int{}
	var totalBytes int64
	for _, r := range live {
		argItems := make([][]memctx.Item, len(st.Args))
		skip := false
		for ai, a := range st.Args {
			argItems[ai] = bst.stores[r].get(a.Value)
			if len(argItems[ai]) == 0 && !a.Optional {
				skip = true
			}
		}
		if skip {
			for _, ret := range st.Rets {
				bst.stores[r].set(ret.Value, nil)
			}
			continue
		}
		var insts []instance
		if sp.broadcastOnly {
			insts = []instance{singleInstance(st.Args, argItems)}
		} else if insts, err = expandInstances(st.Args, argItems); err != nil {
			bst.fail(r, wrap(err))
			continue
		}
		for _, inst := range insts {
			perReq[r] = append(perReq[r], len(items))
			b := instanceBytes(inst)
			totalBytes += b
			items = append(items, batchItem{req: r, inst: inst, borrow: bst.borrow(r), bytes: b})
		}
	}
	if len(items) == 0 {
		return
	}

	// Split the work list into contiguous chunks and run each chunk to
	// completion on a single engine. Solo tenants get one chunk per
	// compute engine (maximum per-chunk amortization of the reused
	// context); a tenant contending for the engines gets chunks sized
	// down by its DRR share, so the scheduler can interleave other
	// tenants' work between its chunks and dispatch-wait tails tighten.
	// Both the chunk count and the split boundaries are byte-aware: the
	// count grows so no chunk carries more than ~chunkByteTarget of
	// payload, and boundaries balance cumulative bytes rather than item
	// count, so one 1 MiB instance weighs as much as thousands of tiny
	// ones and an engine never serializes a byte-heavy chunk while its
	// peers idle over light ones.
	chunks := p.schedAwareChunks(tenant, len(items), totalBytes)
	bounds := chunkBoundsByBytes(items, chunks, totalBytes)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo, hi := bounds[c], bounds[c+1]
		seg := items[lo:hi]
		var segBytes int64
		for i := range seg {
			segBytes += seg[i].bytes
		}
		wg.Add(1)
		task := sched.Task{
			DoSharded: func(shard int) {
				defer wg.Done()
				p.runComputeChunk(v.fn, seg, shard)
			},
			OnReject: func(err error) {
				for i := range seg {
					seg[i].err = err
				}
				wg.Done()
			},
			Deadline: deadline,
			Bytes:    segBytes,
		}
		if err := p.computeSched.Submit(tenant, task); err != nil {
			for i := range seg {
				seg[i].err = err
			}
			wg.Done()
		}
	}
	wg.Wait()

	// Per request: surface the first instance error, or merge outputs
	// in instance order under each Ret binding (matching runStatement).
	for r, idxs := range perReq {
		var failed bool
		for _, ii := range idxs {
			if items[ii].err != nil {
				bst.fail(r, wrap(items[ii].err))
				failed = true
				break
			}
		}
		if failed {
			continue
		}
		for _, ret := range st.Rets {
			var merged []memctx.Item
			for _, ii := range idxs {
				for _, s := range items[ii].outs {
					if s.Name == ret.Set {
						merged = append(merged, s.Items...)
					}
				}
			}
			bst.stores[r].set(ret.Value, merged)
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
func (p *Platform) runComputeChunk(f *registeredFunc, seg []batchItem, shard int) {
	ctx, reused := memctx.NewPooled(funcMemBytes(f))
	sh := p.ctrs.shardAt(shard)
	if reused {
		sh.ctxReused.Add(1)
	} else {
		sh.ctxFresh.Add(1)
	}
	for i := range seg {
		if i > 0 {
			ctx.Reset()
		}
		seg[i].outs, seg[i].err = p.runComputeIn(ctx, f, seg[i].inst, seg[i].borrow, sh)
	}
	memctx.Recycle(ctx)
}

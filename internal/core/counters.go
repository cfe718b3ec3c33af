package core

import (
	"sync/atomic"

	"dandelion/internal/stats"
)

// hotShard is one shard of the dispatcher's hot-path counters. Every
// counter a concurrent invoke touches lives here, grouped so one
// invocation's bookkeeping (an invocation tick, a handful of set/byte
// ticks, a context-provenance tick) lands on a single cache line owned
// de facto by the calling goroutine's shard. The trailing pad keeps
// neighboring shards off each other's lines (see stats.CacheLinePad).
//
// The memory gauges (memCommitted/memPeak on Platform) are deliberately
// NOT sharded: the peak is a maximum over the *summed* committed bytes,
// which needs a total order on the sum that per-shard counters cannot
// provide. They remain two plain atomics — one add and one usually
// conflict-free load per charge.
type hotShard struct {
	invocations atomic.Uint64
	batches     atomic.Uint64
	zcHandoffs  atomic.Uint64
	zcBytes     atomic.Uint64
	ctxReused   atomic.Uint64
	ctxFresh    atomic.Uint64
	_           [stats.CacheLinePad - 48]byte
}

// hotCounters is the sharded counter set: one hotShard per
// stats.ShardCount, picked per call by goroutine affinity. Increments
// are exact atomics — never sampled — so Stats() totals always equal
// completed work; only the (cold) Stats read pays the O(shards) merge.
type hotCounters struct {
	shards []hotShard
}

func newHotCounters() *hotCounters {
	return &hotCounters{shards: make([]hotShard, stats.ShardCount())}
}

// shard returns the calling goroutine's shard. Callers on a hot path
// should grab it once and apply all of an invocation's ticks to it.
func (c *hotCounters) shard() *hotShard {
	return &c.shards[stats.ShardIndex(len(c.shards))]
}

// hotTotals is the lazily merged view of every shard, consumed by
// Platform.Stats.
type hotTotals struct {
	invocations, batches uint64
	zcHandoffs, zcBytes  uint64
	ctxReused, ctxFresh  uint64
}

// merge sums the shards.
func (c *hotCounters) merge() hotTotals {
	var t hotTotals
	for i := range c.shards {
		s := &c.shards[i]
		t.invocations += s.invocations.Load()
		t.batches += s.batches.Load()
		t.zcHandoffs += s.zcHandoffs.Load()
		t.zcBytes += s.zcBytes.Load()
		t.ctxReused += s.ctxReused.Load()
		t.ctxFresh += s.ctxFresh.Load()
	}
	return t
}

// Package cluster implements the cluster manager layer of §5: the
// component (Dirigent in the paper) that orchestrates multiple Dandelion
// worker nodes and load-balances composition invocations across them.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dandelion/internal/core"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
)

// Node is one worker the manager can route invocations to: the whole
// invoke surface of the system. A request carries its composition,
// tenant, idempotency key, and inputs; the deadline lives in ctx (remote
// workers forward the remaining budget over the wire as X-Deadline-Ms).
// *core.Platform, *RemoteNode, and *Manager itself all satisfy it; tests
// use fakes.
type Node interface {
	Invoke(ctx context.Context, req core.Request) (map[string][]memctx.Item, error)
	InvokeBatch(ctx context.Context, reqs []core.Request) []core.Result
}

// Admin is the optional control-plane and observability interface of a
// worker: the manager fans per-tenant DRR weight updates out to every
// registered worker implementing it (see SetTenantWeight) and merges
// their gauge snapshots in AggregateStats. The NodeStats error return
// accommodates remote workers whose snapshot travels a network; a
// worker that errors is skipped for that aggregation round and reported
// in ClusterStats.StatsErrors. *core.Platform (never erroring) and
// *RemoteNode satisfy it.
type Admin interface {
	SetTenantWeight(tenant string, weight int)
	NodeStats() (core.Stats, error)
}

// The optional interfaces are discovered by type assertion, so a
// signature drift would silently drop a worker from fan-out and
// aggregation; pin the implementations at compile time.
var (
	_ Admin       = (*core.Platform)(nil)
	_ Admin       = (*RemoteNode)(nil)
	_ BreakerNode = (*RemoteNode)(nil)
)

// Manager routes invocations across registered workers.
type Manager struct {
	mu      sync.RWMutex
	names   []string
	workers map[string]*member
	rr      atomic.Uint64

	// keyPrefix, unique per manager life, and keySeq, numbering the
	// batches, make the idempotency keys assignKeys gives unkeyed
	// requests unique.
	keyPrefix string
	keySeq    atomic.Uint64

	// jrng jitters the pause before a failed chunk's reroute re-snapshot
	// so concurrent reroutes don't stampede the survivor in lockstep.
	jmu  sync.Mutex
	jrng *rand.Rand
}

type member struct {
	node     Node
	inflight atomic.Int64
	total    atomic.Uint64
	failures atomic.Uint64
	// rerouted counts batch chunks re-queued onto a surviving worker
	// after this worker failed them wholesale.
	rerouted atomic.Uint64
}

// Manager errors.
var (
	ErrNoWorkers  = errors.New("cluster: no workers registered")
	ErrDupWorker  = errors.New("cluster: worker already registered")
	ErrNoSuchNode = errors.New("cluster: no such worker")
)

// NewManager creates a manager. Its key prefix "coord-<pid>-<boot ns>"
// is unique per manager life: a prefix reused against workers whose
// journals hold keys from an earlier life would dedup fresh work
// against stale outcomes.
func NewManager() *Manager {
	boot := time.Now().UnixNano()
	return &Manager{
		workers:   map[string]*member{},
		keyPrefix: fmt.Sprintf("coord-%d-%d", os.Getpid(), boot),
		jrng:      rand.New(rand.NewSource(boot)),
	}
}

// Register adds a worker under a unique name.
func (m *Manager) Register(name string, n Node) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.workers[name]; dup {
		return fmt.Errorf("%w: %q", ErrDupWorker, name)
	}
	m.workers[name] = &member{node: n}
	m.names = append(m.names, name)
	return nil
}

// Deregister removes a worker; in-flight invocations complete normally.
func (m *Manager) Deregister(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.workers[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, name)
	}
	delete(m.workers, name)
	for i, n := range m.names {
		if n == name {
			m.names = append(m.names[:i], m.names[i+1:]...)
			break
		}
	}
	return nil
}

// Workers lists registered worker names in registration order.
func (m *Manager) Workers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.names...)
}

// routable snapshots the members a batch may be routed to: every
// registered worker except those whose circuit breaker is open (still
// inside its cooldown). A half-open breaker reports as such and keeps
// receiving traffic so its probe can run. When every breaker is open
// the whole snapshot is used anyway: failing fast on a real worker
// beats failing ErrNoWorkers on a cluster that may be seconds from
// recovery. The filter compacts the snapshot in place, so routing
// allocates nothing beyond the snapshot.
func (m *Manager) routable() []*member {
	_, members := m.snapshot()
	live := members[:0]
	for _, w := range members {
		if !breakerOpenNode(w.node) {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return members // every breaker open: nothing was overwritten
	}
	return live
}

// Invoke routes one invocation as a one-request batch (see
// InvokeBatch): the request — tenant, idempotency key, and the
// context's deadline included — reaches the worker as given, keyed by
// the manager when it carries no key of its own.
func (m *Manager) Invoke(ctx context.Context, req core.Request) (map[string][]memctx.Item, error) {
	res := m.InvokeBatch(ctx, []core.Request{req})
	return res[0].Outputs, res[0].Err
}

// assignKeys fills the empty Keys of a batch with one chunk-key run
// "prefix-seq#i"; caller-supplied keys are kept. The caller's slice is
// never written to.
func (m *Manager) assignKeys(reqs []core.Request) []core.Request {
	base := fmt.Sprintf("%s-%d", m.keyPrefix, m.keySeq.Add(1))
	keyed := make([]core.Request, len(reqs))
	for i, r := range reqs {
		if r.Key == "" {
			r.Key = journal.ChunkKey(base, i)
		}
		keyed[i] = r
	}
	return keyed
}

// InvokeBatch routes a batch of invocations across the registered
// workers and returns results in request order.
//
// The batch is split into near-equal contiguous chunks, one per
// routable worker (see routable), assigned in rotation order: under
// sustained traffic every worker sees a share of every batch, and
// single invokes rotate through the workers. Each worker gets its
// chunk in one InvokeBatch call.
//
// Every request reaches its worker keyed (see assignKeys), so worker
// failure mid-batch does not sink a chunk: when a worker fails every
// request of its chunk (the signature of a dead or unreachable node, or
// of a response lost in transit), the chunk is re-queued once on the
// surviving worker with the fewest in-flight invocations — or, when no
// other worker survives, on the same still-registered worker — and only
// that retry's results stand. The worker's completed-key dedup table
// (journal-backed on durable nodes) absorbs a re-execution, so this is
// safe for a single request too, whose failure cannot be told apart
// from an application error. A chunk whose caller's context has ended
// is not retried.
func (m *Manager) InvokeBatch(ctx context.Context, reqs []core.Request) []core.Result {
	results := make([]core.Result, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	members := m.routable()
	if len(members) == 0 {
		for i := range results {
			results[i].Err = ErrNoWorkers
		}
		return results
	}
	reqs = m.assignKeys(reqs)

	k := min(len(members), len(reqs))
	start := m.rr.Add(1) - 1
	var wg sync.WaitGroup
	for c := 0; c < k; c++ {
		lo, hi := c*len(reqs)/k, (c+1)*len(reqs)/k
		w := members[(start+uint64(c))%uint64(len(members))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			seg := reqs[lo:hi]
			res := m.runChunk(ctx, w, seg)
			if allFailed(res) && m.rerouteDelay(ctx) {
				// Re-snapshot live membership before retrying: the
				// pre-batch snapshot can name workers deregistered — or,
				// with heartbeat tracking, evicted — while this chunk
				// ran, and retrying onto one of those just fails again.
				_, live := m.snapshot()
				alt := pickSurvivor(live, w)
				if alt == nil && contains(live, w) {
					// No other survivor, but the worker is still
					// registered: retry in place, which recovers a
					// response lost to a transient transport failure.
					alt = w
				}
				if alt != nil {
					w.rerouted.Add(1)
					res = m.runChunk(ctx, alt, seg)
				}
			}
			copy(results[lo:hi], res)
		}()
	}
	wg.Wait()
	return results
}

// runChunk drives one contiguous chunk on one worker and returns the
// chunk's results, accounting the routing counters.
func (m *Manager) runChunk(ctx context.Context, w *member, reqs []core.Request) []core.Result {
	n := int64(len(reqs))
	w.inflight.Add(n)
	w.total.Add(uint64(n))
	defer w.inflight.Add(-n)
	res := w.node.InvokeBatch(ctx, reqs)
	for _, r := range res {
		if r.Err != nil {
			w.failures.Add(1)
		}
	}
	return res
}

// rerouteDelay pauses a failed chunk for a short jittered interval
// (1–5ms) before it re-snapshots membership and retries: concurrent
// chunks failed by the same dead worker would otherwise stampede the
// survivor in lockstep, and a transient blip often clears within
// milliseconds. It reports false when the caller's context ends first:
// a retry under a dead context cannot succeed.
func (m *Manager) rerouteDelay(ctx context.Context) bool {
	m.jmu.Lock()
	d := time.Millisecond + time.Duration(m.jrng.Int63n(int64(4*time.Millisecond)))
	m.jmu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// contains reports whether w is among members.
func contains(members []*member, w *member) bool {
	for _, m := range members {
		if m == w {
			return true
		}
	}
	return false
}

// allFailed reports whether every result of a (non-empty) chunk errored
// — the manager's worker-failure heuristic.
func allFailed(res []core.Result) bool {
	if len(res) == 0 {
		return false
	}
	for _, r := range res {
		if r.Err == nil {
			return false
		}
	}
	return true
}

// pickSurvivor returns the least-loaded member other than failed whose
// circuit breaker accepts traffic, or nil when none exists. When every
// other survivor's breaker is open, the least-loaded one is returned
// anyway — a fast local refusal is still a better answer than not
// retrying at all, and it keeps the same-worker fallback (which only
// triggers on a nil survivor) reserved for single-worker clusters.
func pickSurvivor(members []*member, failed *member) *member {
	var best, bestOpen *member
	for _, w := range members {
		if w == failed {
			continue
		}
		if breakerOpenNode(w.node) {
			if bestOpen == nil || w.inflight.Load() < bestOpen.inflight.Load() {
				bestOpen = w
			}
			continue
		}
		if best == nil || w.inflight.Load() < best.inflight.Load() {
			best = w
		}
	}
	if best == nil {
		return bestOpen
	}
	return best
}

// WorkerStats reports per-worker routing counters.
type WorkerStats struct {
	Name     string
	InFlight int64
	Total    uint64
	Failures uint64
	// Rerouted counts batch chunks this worker failed wholesale that
	// were re-queued on a surviving worker.
	Rerouted uint64
	// Breaker is the worker's circuit-breaker state ("closed", "open",
	// "half-open"), empty for workers without a breaker (in-process
	// platforms). BreakerTrips counts transitions to open, and
	// BreakerOpen calls fast-failed locally while open.
	Breaker      string `json:",omitempty"`
	BreakerOpen  uint64
	BreakerTrips uint64
}

// workerStats assembles one worker's routing counters, folding in the
// breaker gauges of workers that expose them.
func workerStats(name string, w *member) WorkerStats {
	ws := WorkerStats{
		Name: name, InFlight: w.inflight.Load(),
		Total: w.total.Load(), Failures: w.failures.Load(),
		Rerouted: w.rerouted.Load(),
	}
	if bn, ok := w.node.(BreakerNode); ok {
		ws.Breaker = bn.BreakerState()
		ws.BreakerTrips, ws.BreakerOpen = bn.BreakerCounters()
	}
	return ws
}

// Stats snapshots every worker's counters in registration order.
func (m *Manager) Stats() []WorkerStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]WorkerStats, 0, len(m.names))
	for _, n := range m.names {
		out = append(out, workerStats(n, m.workers[n]))
	}
	return out
}

// snapshot copies the current registration order and members so slow
// per-worker calls never run under the manager lock.
func (m *Manager) snapshot() ([]string, []*member) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := append([]string(nil), m.names...)
	members := make([]*member, len(names))
	for i, n := range names {
		members[i] = m.workers[n]
	}
	return names, members
}

// SetTenantWeight fans a tenant's DRR dispatch weight out to every
// registered worker implementing Admin and returns how many
// applied it — the cluster-wide form of the control plane's weight
// update, so one admin request reconfigures the whole fleet. A remote
// worker whose PUT failed did not apply it. Workers registered
// mid-fan-out pick the weight up on the next update; the scheduler
// clamps non-positive weights to 1 on every node.
func (m *Manager) SetTenantWeight(tenant string, weight int) int {
	_, members := m.snapshot()
	applied := 0
	for _, w := range members {
		switch n := w.node.(type) {
		case *RemoteNode:
			if n.setTenantWeight(tenant, weight) == nil {
				applied++
			}
		case Admin:
			n.SetTenantWeight(tenant, weight)
			applied++
		}
	}
	return applied
}

// ClusterStats is the cluster-wide gauge snapshot AggregateStats
// assembles: platform counters summed across reporting workers, the
// per-tenant scheduling gauges merged the same way the compute and
// communication planes merge on one node (sched.MergeStats: counts add,
// averages weight by dispatches, percentiles take the worst), and the
// manager's own per-worker routing counters. The frontend serializes it
// verbatim as GET /stats/cluster; docs/STATS.md documents the schema.
type ClusterStats struct {
	// Workers is the number of registered workers when aggregation
	// started; Reporting how many contributed a snapshot. StatsErrors
	// names the workers whose NodeStats failed this round (skipped, not
	// fatal); workers not implementing Admin are simply absent from
	// both.
	Workers     int
	Reporting   int
	StatsErrors []string `json:",omitempty"`
	// Summed platform counters across reporting workers.
	Invocations      uint64
	Batches          uint64
	ComputeEngines   int
	CommEngines      int
	ComputeQueueLen  int
	CommQueueLen     int
	ComputeCompleted uint64
	CommCompleted    uint64
	CommittedBytes   int64
	EngineResizes    uint64
	// Journal/dedup gauges summed across reporting workers: appends and
	// replays of durable invocation journals, and completed-key dedup
	// hits (re-sends answered without re-execution).
	JournalAppends  uint64
	JournalReplayed uint64
	DedupHits       uint64
	// Robustness gauges. TimedOut, Expired, and Shed sum the workers'
	// deadline counters (invocations failed deadline-class, scheduler
	// entries dropped expired before dispatch, admissions shed by the
	// frontend). BreakerOpen and BreakerTrips sum the Routing entries'
	// circuit-breaker counters.
	TimedOut     uint64
	Expired      uint64
	Shed         uint64
	BreakerOpen  uint64
	BreakerTrips uint64
	// Tenants carries the per-tenant scheduling gauges merged across
	// every reporting worker.
	Tenants []sched.TenantStats `json:",omitempty"`
	// Routing carries the manager's per-worker routing counters, one
	// entry per registered worker in registration order.
	Routing []WorkerStats `json:",omitempty"`
	// Heartbeat-tracked membership gauges, filled by
	// Tracker.AggregateStats when the cluster runs remote workers:
	// Heartbeats counts beats accepted, Evictions workers evicted for
	// missing HeartbeatMisses beats of HeartbeatInterval each, and
	// Evicted lists every currently-evicted worker (reported until it
	// re-joins, never silently dropped). All zero under a bare Manager.
	Heartbeats        uint64
	Evictions         uint64
	HeartbeatInterval time.Duration   `json:",omitempty"`
	HeartbeatMisses   int             `json:",omitempty"`
	Evicted           []EvictedWorker `json:",omitempty"`
}

// AggregateStats merges every reporting worker's gauges into one
// cluster-wide view. The member list is snapshotted first and each
// worker's NodeStats runs outside the manager lock, so registration
// changes mid-aggregation neither block nor corrupt the merge: a worker
// deregistered mid-flight is still counted (exactly once) from the
// snapshot, and a worker whose NodeStats errors is skipped and named in
// StatsErrors rather than failing the aggregation.
func (m *Manager) AggregateStats() ClusterStats {
	names, members := m.snapshot()
	cs := ClusterStats{Workers: len(names)}
	// Routing comes from the same snapshot as everything else, so
	// Workers and the Routing entries always agree even when workers
	// register or deregister mid-aggregation.
	cs.Routing = make([]WorkerStats, len(names))
	for i, w := range members {
		cs.Routing[i] = workerStats(names[i], w)
		cs.BreakerOpen += cs.Routing[i].BreakerOpen
		cs.BreakerTrips += cs.Routing[i].BreakerTrips
	}
	var tenantLists [][]sched.TenantStats
	for i, w := range members {
		an, ok := w.node.(Admin)
		if !ok {
			continue
		}
		st, err := an.NodeStats()
		if err != nil {
			cs.StatsErrors = append(cs.StatsErrors, names[i])
			continue
		}
		cs.Reporting++
		cs.Invocations += st.Invocations
		cs.Batches += st.Batches
		cs.ComputeEngines += st.ComputeEngines
		cs.CommEngines += st.CommEngines
		cs.ComputeQueueLen += st.ComputeQueueLen
		cs.CommQueueLen += st.CommQueueLen
		cs.ComputeCompleted += st.ComputeCompleted
		cs.CommCompleted += st.CommCompleted
		cs.CommittedBytes += st.CommittedBytes
		cs.EngineResizes += st.EngineResizes
		cs.JournalAppends += st.JournalAppends
		cs.JournalReplayed += st.JournalReplayed
		cs.DedupHits += st.DedupHits
		cs.TimedOut += st.TimedOut
		cs.Expired += st.Expired
		cs.Shed += st.Shed
		if len(st.Tenants) > 0 {
			tenantLists = append(tenantLists, st.Tenants)
		}
	}
	cs.Tenants = sched.MergeStats(tenantLists...)
	return cs
}

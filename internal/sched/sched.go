// Package sched is the multi-tenant scheduling plane layered between
// the dispatcher (internal/core) and the sharded work-stealing engine
// queue (internal/engine). The engine queue stays throughput-oriented —
// engines still refill shards and steal — but tasks no longer enter it
// directly: every dispatch is submitted here under a tenant identity,
// parked in that tenant's FIFO, and released into the engine queue by a
// deficit-round-robin (DRR) refill loop.
//
// Fairness comes from two mechanisms working together:
//
//   - A bounded dispatch window: at most Window tasks are in the engine
//     layer (queued or running) at once, so a tenant cannot bury the
//     engine queue under a giant backlog; the backlog stays here, where
//     it is per-tenant.
//   - DRR refill: when a window slot frees (a task completes), the next
//     task is drawn from the backlogged tenants in deficit round robin,
//     each tenant earning weight dispatch credits per round.
//     With unit-cost tasks a weight-2 tenant gets twice the dispatch
//     slots of a weight-1 tenant, and an interactive tenant's task is
//     dispatched after at most one round regardless of how deep another
//     tenant's backlog is.
//
// The scheduler also owns the per-tenant observability the fairness
// work is judged by: queued/running/completed gauges and dispatch-wait
// (Submit→engine-queue Push) average, p99, and max.
package sched

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"

	"dandelion/internal/engine"
)

// DefaultTenant is the identity used when a caller supplies none.
const DefaultTenant = "default"

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// ErrExpired is passed to a task's OnReject when its Deadline passed
// while the task was still parked: the scheduler drops expired entries
// at dispatch time instead of burning an engine on work whose caller
// has already given up.
var ErrExpired = errors.New("sched: task deadline expired before dispatch")

// waitRingSize bounds the per-tenant dispatch-wait sample ring backing
// the percentile gauges; older samples are overwritten.
const waitRingSize = 512

// Task is one unit of work submitted on behalf of a tenant.
type Task struct {
	// Do performs the work; a nil Do is a no-op.
	Do func()
	// OnReject, when non-nil, is called instead of Do if the task is
	// dropped after admission: because the scheduler or the underlying
	// engine queue closed (ErrClosed / the queue's error), or because
	// Deadline passed before dispatch (ErrExpired). It may run under
	// scheduler locks and must not call back into the Scheduler.
	OnReject func(error)
	// Bytes is the task's payload weight — the cumulative input bytes
	// it will move through an engine. Only read under Config.
	// ByteFairness, where the DRR deficit charges bytes instead of
	// task counts; zero (unknown) charges the minimum cost.
	Bytes int64
	// Deadline, when non-zero, is the instant after which the task is no
	// longer worth running. An entry whose deadline has passed by the
	// time the DRR refill loop reaches it is dropped — OnReject(ErrExpired),
	// never executed, no window slot consumed.
	Deadline time.Time
}

// Config parameterizes a Scheduler. The zero value is usable.
type Config struct {
	// Window bounds dispatched-but-unfinished tasks in the engine layer.
	// Zero consults WindowFn; if that is also nil, 2×GOMAXPROCS.
	Window int
	// WindowFn, used when Window is 0, is consulted on every refill so
	// the window can track a resizable engine pool.
	WindowFn func() int
	// Weights seeds per-tenant weights; unlisted tenants get weight 1.
	Weights map[string]int
	// ByteFairness switches the DRR deficit from task counts to payload
	// bytes: a backlogged tenant earns DefaultByteQuantum×weight byte
	// credits per round and each dispatch charges the task's Bytes (minimum
	// minByteCost), so a tenant of 1 MiB analytics scans consumes its
	// round on a handful of tasks while an equal-weight tenant of tiny
	// interactive invokes dispatches hundreds — equal *bytes*, not
	// equal task slots. A dispatch may overdraw the deficit (the head
	// task always goes through once credit is positive — no head-of-
	// line starvation for oversized tasks); the debt carries into the
	// next round's credit.
	ByteFairness bool
	// Now is the clock behind the dispatch-wait gauges (default
	// time.Now); tests inject a virtual clock.
	Now func() time.Time
}

// DefaultByteQuantum is the per-round byte credit of a weight-1 tenant
// under ByteFairness: 1 MiB, one large-payload invocation's worth.
const DefaultByteQuantum int64 = 1 << 20

// minByteCost is the floor a dispatch charges under ByteFairness, so
// zero-byte (or unknown-size) tasks still consume credit and a round
// over a deep tiny-task backlog terminates: at 4 KiB, a weight-1
// tenant dispatches at most 256 tiny tasks per round.
const minByteCost int64 = 4 << 10

// Scheduler fronts one engine queue with per-tenant DRR dispatch. It is
// safe for concurrent use.
type Scheduler struct {
	q   *engine.Queue
	cfg Config

	mu       sync.Mutex
	tenants  map[string]*tenantQueue
	active   []*tenantQueue // backlogged tenants, round-robin order
	cursor   int
	inflight int
	closed   bool
}

// entry is one parked task plus its admission time.
type entry struct {
	task Task
	at   time.Time
}

// tenantQueue is one tenant's backlog and gauges.
type tenantQueue struct {
	name   string
	weight int
	// deficit is the tenant's remaining dispatch credit this round: task
	// counts by default, bytes under Config.ByteFairness. It may go
	// negative when a dispatch overdraws (byte mode only); the debt is
	// repaid out of the next round's credit.
	deficit int64
	charged bool // earned this round's credit and not yet left the round
	backlog []entry

	running    int
	completed  uint64
	rejected   uint64
	expired    uint64
	dispatched uint64
	waitSum    time.Duration
	waitMax    time.Duration
	waits      []time.Duration // ring of recent waits, ≤ waitRingSize
	waitPos    int
}

// New creates a scheduler feeding q.
func New(q *engine.Queue, cfg Config) *Scheduler {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Scheduler{q: q, cfg: cfg, tenants: map[string]*tenantQueue{}}
	for name, w := range cfg.Weights {
		s.tenantLocked(name).weight = clampWeight(w)
	}
	return s
}

func clampWeight(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// tenantLocked returns the tenant's queue, creating it at weight 1.
func (s *Scheduler) tenantLocked(name string) *tenantQueue {
	tq := s.tenants[name]
	if tq == nil {
		tq = &tenantQueue{name: name, weight: 1}
		s.tenants[name] = tq
	}
	return tq
}

// Share reports the tenant's weighted dispatch share in (0, 1]: its
// DRR weight over the summed weights of all currently active tenants
// (those with parked or running work), the tenant itself always
// included. A tenant alone on the scheduler has share 1. Callers use
// it to right-size work granularity — e.g. the dispatcher's
// sched-aware batch chunking splits a contending tenant's work list
// into chunks shrunk by its share, so the DRR refill loop can
// interleave other tenants between chunks.
//
// Share is hardened against degenerate states: weights are re-clamped
// to ≥1 as they are read (so a zero weight that slipped past the
// setters can never zero a numerator or denominator), an unknown
// tenant counts as weight 1, and with no active competitors the result
// is exactly 1 — never 0, NaN, or Inf, whatever the tenant map holds.
func (s *Scheduler) Share(tenant string) float64 {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mine := 1
	if tq := s.tenants[tenant]; tq != nil {
		mine = clampWeight(tq.weight)
	}
	total := mine
	for name, tq := range s.tenants {
		if name == tenant {
			continue
		}
		if len(tq.backlog) > 0 || tq.running > 0 {
			total += clampWeight(tq.weight)
		}
	}
	if total < mine {
		// Unreachable with clamped addends; keeps the contract ≤1 even so.
		total = mine
	}
	return float64(mine) / float64(total)
}

// Weight reports a tenant's current DRR weight. Tenants the scheduler
// has never seen report the default weight 1.
func (s *Scheduler) Weight(tenant string) int {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tq := s.tenants[tenant]; tq != nil {
		return clampWeight(tq.weight)
	}
	return 1
}

// SetWeight sets a tenant's DRR weight (minimum 1). It applies from the
// next refill round.
func (s *Scheduler) SetWeight(tenant string, w int) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	s.tenantLocked(tenant).weight = clampWeight(w)
	s.mu.Unlock()
}

// Submit admits one task under the tenant identity ("" means
// DefaultTenant). Once admitted, the task's Do eventually runs on an
// engine, or OnReject is called if the scheduler or queue closes first.
// Submit itself returns ErrClosed (without calling OnReject) when the
// scheduler has already closed.
func (s *Scheduler) Submit(tenant string, t Task) error {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	tq := s.tenantLocked(tenant)
	if len(tq.backlog) == 0 && !tq.charged {
		s.active = append(s.active, tq)
	}
	tq.backlog = append(tq.backlog, entry{task: t, at: s.cfg.Now()})
	s.pumpLocked()
	s.mu.Unlock()
	return nil
}

// window resolves the current dispatch-window size (≥1).
func (s *Scheduler) window() int {
	w := s.cfg.Window
	if w <= 0 && s.cfg.WindowFn != nil {
		w = s.cfg.WindowFn()
	}
	if w <= 0 {
		w = 2 * runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// pumpLocked is the DRR refill loop: while window slots are free and
// tenants are backlogged, earn credit round-robin and dispatch.
func (s *Scheduler) pumpLocked() {
	if s.closed {
		return
	}
	window := s.window()
	for len(s.active) > 0 && s.inflight < window {
		if s.cursor >= len(s.active) {
			s.cursor = 0
		}
		tq := s.active[s.cursor]
		if !tq.charged {
			// clampWeight again at credit time: a weight that somehow hit
			// zero would earn no credit forever, and the refill loop would
			// spin over a backlogged tenant it can never dispatch. Under
			// ByteFairness the credit adds onto any negative carry from a
			// round that overdrew, so byte debt is repaid before new work
			// dispatches.
			tq.deficit += s.roundCredit(tq)
			tq.charged = true
		}
		for s.inflight < window && len(tq.backlog) > 0 && tq.deficit > 0 {
			tq.deficit -= s.dispatchLocked(tq)
		}
		if len(tq.backlog) == 0 {
			// Drained: forfeit leftover credit — and any byte debt, as in
			// classic DRR's empty-queue reset — and leave the round; the
			// cursor now points at the next tenant.
			tq.deficit = 0
			tq.charged = false
			s.active = append(s.active[:s.cursor], s.active[s.cursor+1:]...)
			continue
		}
		if tq.deficit > 0 {
			// Window filled mid-allowance; resume here on completion.
			return
		}
		tq.charged = false
		s.cursor++
	}
}

// roundCredit is the dispatch credit a tenant earns per DRR round:
// weight task slots, or weight × DefaultByteQuantum bytes under
// ByteFairness.
func (s *Scheduler) roundCredit(tq *tenantQueue) int64 {
	w := int64(clampWeight(tq.weight))
	if s.cfg.ByteFairness {
		return w * DefaultByteQuantum
	}
	return w
}

// taskCost is what one dispatch charges against the deficit: 1 task
// slot, or the task's payload bytes (floored at minByteCost) under
// ByteFairness.
func (s *Scheduler) taskCost(t Task) int64 {
	if !s.cfg.ByteFairness {
		return 1
	}
	if t.Bytes < minByteCost {
		return minByteCost
	}
	return t.Bytes
}

// dispatchLocked moves one task from the tenant backlog into the engine
// queue, wrapping it so completion frees the window slot and re-pumps,
// and returns the dispatched task's deficit cost (0 if expired entries
// drained the backlog and nothing dispatched). Entries whose deadline
// already passed are dropped on the way — they never reach an engine,
// never consume a window slot, and charge nothing; the loop keeps
// popping until it dispatches a live entry or drains the backlog.
func (s *Scheduler) dispatchLocked(tq *tenantQueue) int64 {
	var e entry
	for {
		if len(tq.backlog) == 0 {
			return 0
		}
		e = tq.backlog[0]
		tq.backlog[0] = entry{} // drop the closure reference
		tq.backlog = tq.backlog[1:]
		d := e.task.Deadline
		if d.IsZero() || s.cfg.Now().Before(d) {
			break
		}
		tq.expired++
		if e.task.OnReject != nil {
			e.task.OnReject(ErrExpired)
		}
	}
	tq.recordWait(s.cfg.Now().Sub(e.at))
	s.inflight++
	tq.running++
	tq.dispatched++
	name, do := tq.name, e.task.Do
	err := s.q.Push(engine.Task{Do: func() {
		defer s.taskDone(name)
		if do != nil {
			do()
		}
	}})
	if err != nil {
		s.inflight--
		tq.running--
		tq.rejected++
		if e.task.OnReject != nil {
			e.task.OnReject(err)
		}
		return 0 // never reached an engine: charge nothing
	}
	return s.taskCost(e.task)
}

// taskDone runs on the engine worker after a task finishes: it frees
// the window slot and refills via DRR — the "engines steal, DRR
// refills" contract.
func (s *Scheduler) taskDone(tenant string) {
	s.mu.Lock()
	if tq := s.tenants[tenant]; tq != nil {
		tq.running--
		tq.completed++
	}
	s.inflight--
	s.pumpLocked()
	s.mu.Unlock()
}

func (tq *tenantQueue) recordWait(w time.Duration) {
	if w < 0 {
		w = 0
	}
	tq.waitSum += w
	if w > tq.waitMax {
		tq.waitMax = w
	}
	if len(tq.waits) < waitRingSize {
		tq.waits = append(tq.waits, w)
		return
	}
	tq.waits[tq.waitPos] = w
	tq.waitPos = (tq.waitPos + 1) % waitRingSize
}

// OldestWait reports how long the tenant's oldest parked entry has been
// waiting for dispatch (0 with nothing parked). A non-empty backlog
// means the dispatch window is saturated for this tenant right now, so
// the head's age is a lower bound on any new submission's queueing
// delay — the frontend's overload shed compares it against an incoming
// request's deadline budget.
func (s *Scheduler) OldestWait(tenant string) time.Duration {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tq := s.tenants[tenant]
	if tq == nil || len(tq.backlog) == 0 {
		return 0
	}
	w := s.cfg.Now().Sub(tq.backlog[0].at)
	if w < 0 {
		w = 0
	}
	return w
}

// Close rejects every parked task (OnReject(ErrClosed)) and makes all
// later Submits fail. Tasks already in the engine queue still run.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var rejected []Task
	for _, tq := range s.tenants {
		for _, e := range tq.backlog {
			tq.rejected++
			rejected = append(rejected, e.task)
		}
		tq.backlog = nil
		tq.deficit = 0
		tq.charged = false
	}
	s.active = nil
	s.mu.Unlock()
	for _, t := range rejected {
		if t.OnReject != nil {
			t.OnReject(ErrClosed)
		}
	}
}

// Parked reports the number of tasks parked awaiting dispatch, over
// every tenant. Unlike Stats it neither allocates nor sorts.
func (s *Scheduler) Parked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, tq := range s.tenants {
		n += len(tq.backlog)
	}
	return n
}

// TenantStats is one tenant's scheduling gauges.
type TenantStats struct {
	// Tenant is the identity; Weight its DRR share.
	Tenant string
	Weight int
	// Queued counts tasks parked here awaiting dispatch; Running counts
	// tasks released to the engine layer and not yet finished.
	Queued  int
	Running int
	// Dispatched/Completed/Rejected are cumulative task counts; Expired
	// counts entries dropped at dispatch time because their deadline had
	// already passed (never executed, not counted in Dispatched).
	Dispatched uint64
	Completed  uint64
	Rejected   uint64
	Expired    uint64
	// Dispatch-wait is the Submit→dispatch delay: Avg over all tasks,
	// P99 over the most recent waitRingSize samples, Max over all.
	AvgDispatchWait time.Duration
	P99DispatchWait time.Duration
	MaxDispatchWait time.Duration
}

// Stats snapshots every tenant's gauges, sorted by tenant name.
func (s *Scheduler) Stats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.tenants))
	for _, tq := range s.tenants {
		st := TenantStats{
			Tenant:          tq.name,
			Weight:          clampWeight(tq.weight),
			Queued:          len(tq.backlog),
			Running:         tq.running,
			Dispatched:      tq.dispatched,
			Completed:       tq.completed,
			Rejected:        tq.rejected,
			Expired:         tq.expired,
			MaxDispatchWait: tq.waitMax,
		}
		if tq.dispatched > 0 {
			st.AvgDispatchWait = tq.waitSum / time.Duration(tq.dispatched)
		}
		if len(tq.waits) > 0 {
			sorted := append([]time.Duration(nil), tq.waits...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			rank := int(0.99*float64(len(sorted))+0.5) - 1
			if rank < 0 {
				rank = 0
			}
			if rank >= len(sorted) {
				rank = len(sorted) - 1
			}
			st.P99DispatchWait = sorted[rank]
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// MergeStats combines per-scheduler tenant gauges (e.g. compute + comm
// planes) into one list keyed by tenant: counts add, averages weight by
// dispatch count, percentiles and maxima take the worst, and the weight
// is taken from the first list that knows the tenant.
func MergeStats(lists ...[]TenantStats) []TenantStats {
	byName := map[string]*TenantStats{}
	var order []string
	for _, list := range lists {
		for _, st := range list {
			m := byName[st.Tenant]
			if m == nil {
				cp := st
				byName[st.Tenant] = &cp
				order = append(order, st.Tenant)
				continue
			}
			total := m.Dispatched + st.Dispatched
			if total > 0 {
				m.AvgDispatchWait = time.Duration(
					(int64(m.AvgDispatchWait)*int64(m.Dispatched) +
						int64(st.AvgDispatchWait)*int64(st.Dispatched)) / int64(total))
			}
			m.Queued += st.Queued
			m.Running += st.Running
			m.Dispatched = total
			m.Completed += st.Completed
			m.Rejected += st.Rejected
			m.Expired += st.Expired
			if st.P99DispatchWait > m.P99DispatchWait {
				m.P99DispatchWait = st.P99DispatchWait
			}
			if st.MaxDispatchWait > m.MaxDispatchWait {
				m.MaxDispatchWait = st.MaxDispatchWait
			}
		}
	}
	out := make([]TenantStats, 0, len(order))
	sort.Strings(order)
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// Sharded work-stealing task queue.
//
// The original queue was a single mutex+cond FIFO: every Push and every
// Pop serialized on one lock, which caps dispatch throughput long before
// the engines saturate. This version follows the Go scheduler's layout:
//
//   - a global bounded lock-free MPMC ring (the submission fast path,
//     pure sync/atomic CAS, no locks),
//   - an unbounded mutex-guarded overflow list the ring spills into, so
//     Push keeps the old never-blocks/never-drops contract,
//   - per-engine local shards (small lock-free rings) that workers
//     refill in batches from the global ring and that idle workers
//     steal from, keeping hot dispatch off any shared line.
//
// The exported contract is unchanged: Push/Pop/TryPop/Len/Close
// behave as before, so engine.Pool and SetCount re-assignment keep
// working.
// Blocking is handled by a parking lot (mutex+cond) entered only after
// the lock-free paths come up empty.
//
// This queue is single-tenant by design: it orders tasks, it does not
// arbitrate between principals. Multi-tenant fairness lives one layer
// up in internal/sched, whose DRR refill loop decides which tenant's
// task enters this queue next and bounds how many are in it at once;
// the dispatcher (internal/core) submits there, not here.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// globalRingSize bounds the lock-free submission ring; beyond it Push
// spills to the unbounded overflow list. Must be a power of two.
const globalRingSize = 1024

// shardRingSize bounds one engine's local shard. Must be a power of two.
const shardRingSize = 128

// refillBatch is the max number of tasks a worker moves from the global
// ring into its local shard per refill (amortizes ring contention).
const refillBatch = 16

// ring is a bounded lock-free MPMC queue (Vyukov-style): each cell
// carries a sequence number that encodes whether it is ready to be
// produced into or consumed from, so producers and consumers only
// contend on their respective cursors.
type ring struct {
	mask  uint64
	cells []ringCell
	enq   atomic.Uint64
	deq   atomic.Uint64
}

type ringCell struct {
	seq  atomic.Uint64
	task Task
}

func newRing(capacity uint64) *ring {
	r := &ring{mask: capacity - 1, cells: make([]ringCell, capacity)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// enqueue adds t; it fails (returns false) only when the ring is full.
func (r *ring) enqueue(t Task) bool {
	for {
		pos := r.enq.Load()
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.task = t
				c.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			return false // full
		}
		// seq > pos: another producer claimed this cell; retry.
	}
}

// dequeue removes the oldest task; it fails only when the ring is empty.
func (r *ring) dequeue() (Task, bool) {
	for {
		pos := r.deq.Load()
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos+1:
			if r.deq.CompareAndSwap(pos, pos+1) {
				t := c.task
				c.task = Task{} // drop the closure reference
				c.seq.Store(pos + r.mask + 1)
				return t, true
			}
		case seq < pos+1:
			return Task{}, false // empty
		}
		// seq > pos+1: another consumer claimed this cell; retry.
	}
}

// length is an instantaneous (racy but monotonic-cursor) size estimate.
func (r *ring) length() int {
	enq, deq := r.enq.Load(), r.deq.Load()
	if enq <= deq {
		return 0
	}
	return int(enq - deq)
}

// shard is one engine's local deque. The owner refills it from the
// global ring and pops from it; idle peers steal from it. A lock-free
// MPMC ring handles both ends safely.
type shard struct {
	local *ring
}

// Queue is the type-specific task queue engines poll. It is unbounded
// and approximately FIFO: strict FIFO through the global ring, relaxed
// ordering once tasks are distributed to local shards or stolen. Pop
// blocks until a task arrives or the queue closes.
type Queue struct {
	global *ring

	overflowMu  sync.Mutex
	overflow    []Task
	overflowLen atomic.Int64

	shardMu sync.RWMutex
	shards  []*shard

	closed atomic.Bool
	// pushing counts Pushes between their closed check and enqueue;
	// Close waits for it to drain so Push-vs-Close stays atomic (the
	// guarantee the old locked queue gave): after Close returns, every
	// Push reports ErrQueueClosed and no task is silently stranded.
	pushing atomic.Int64

	parkMu   sync.Mutex
	parkCond *sync.Cond
	sleepers atomic.Int64
}

// NewQueue creates an empty queue.
func NewQueue() *Queue {
	q := &Queue{global: newRing(globalRingSize)}
	q.parkCond = sync.NewCond(&q.parkMu)
	return q
}

// spill appends a task to the unbounded overflow list.
func (q *Queue) spill(t Task) {
	q.overflowMu.Lock()
	q.overflow = append(q.overflow, t)
	q.overflowMu.Unlock()
	q.overflowLen.Add(1)
}

// requeue puts a task into circulation: global ring first, overflow
// when the ring is full.
func (q *Queue) requeue(t Task) {
	if !q.global.enqueue(t) {
		q.spill(t)
	}
}

// Push appends a task. The fast path is one lock-free ring enqueue; a
// full ring spills to the overflow list so Push never blocks or drops.
func (q *Queue) Push(t Task) error {
	q.pushing.Add(1)
	defer q.pushing.Add(-1)
	if q.closed.Load() {
		return ErrQueueClosed
	}
	q.requeue(t)
	q.wakeSleepers()
	return nil
}

// addWorker registers an engine's local shard with the queue.
func (q *Queue) addWorker() *shard {
	s := &shard{local: newRing(shardRingSize)}
	q.shardMu.Lock()
	q.shards = append(q.shards, s)
	q.shardMu.Unlock()
	return s
}

// releaseWorker unregisters a shard and re-queues anything left in it so
// shrinking a pool (SetCount) never strands tasks.
func (q *Queue) releaseWorker(s *shard) {
	q.shardMu.Lock()
	for i, cur := range q.shards {
		if cur == s {
			q.shards = append(q.shards[:i], q.shards[i+1:]...)
			break
		}
	}
	q.shardMu.Unlock()
	moved := false
	for {
		t, ok := s.local.dequeue()
		if !ok {
			break
		}
		moved = true
		// Internal move: bypass Push, which refuses a closed queue.
		q.requeue(t)
	}
	if moved {
		q.parkMu.Lock()
		q.parkCond.Broadcast()
		q.parkMu.Unlock()
	}
}

// takeOverflow moves up to refillBatch overflowed tasks back toward the
// consumer: one is returned, the rest go to the local shard (or back to
// the global ring when the consumer has no shard). moved reports that
// the rest were not empty: the caller then owes parked peers a wakeup
// (see scan).
func (q *Queue) takeOverflow(s *shard) (t Task, ok, moved bool) {
	if q.overflowLen.Load() == 0 {
		return Task{}, false, false
	}
	q.overflowMu.Lock()
	if len(q.overflow) == 0 {
		q.overflowMu.Unlock()
		return Task{}, false, false
	}
	n := refillBatch
	if n > len(q.overflow) {
		n = len(q.overflow)
	}
	batch := make([]Task, n)
	copy(batch, q.overflow[:n])
	rest := q.overflow[n:]
	q.overflow = append(q.overflow[:0:0], rest...)
	q.overflowMu.Unlock()
	q.overflowLen.Add(int64(-n))

	for _, t := range batch[1:] {
		if s != nil && s.local.enqueue(t) {
			continue
		}
		q.requeue(t)
	}
	return batch[0], true, n > 1
}

// refillFromGlobal grabs a batch from the global ring: the first task is
// returned, the rest land in the worker's local shard. moved reports
// that there was a rest, as for takeOverflow.
func (q *Queue) refillFromGlobal(s *shard) (first Task, ok, moved bool) {
	first, ok = q.global.dequeue()
	if !ok || s == nil {
		return first, ok, false
	}
	for i := 1; i < refillBatch; i++ {
		t, ok := q.global.dequeue()
		if !ok {
			break
		}
		moved = true
		if !s.local.enqueue(t) {
			// Local shard full; put it back in circulation.
			q.requeue(t)
			break
		}
	}
	return first, true, moved
}

// steal takes one task from some other worker's shard.
func (q *Queue) steal(self *shard) (Task, bool) {
	q.shardMu.RLock()
	defer q.shardMu.RUnlock()
	for _, victim := range q.shards {
		if victim == self {
			continue
		}
		if t, ok := victim.local.dequeue(); ok {
			return t, true
		}
	}
	return Task{}, false
}

// scan tries every source once without blocking: local shard, overflow
// backlog (checked early so spilled tasks cannot starve behind a
// constantly-refilled ring), global ring, then stealing.
//
// moved reports that a refill moved tasks besides the returned one
// toward this consumer, and the caller must then wake parked peers. A
// peer whose park-time re-scan ran while those tasks were between the
// global ring (or overflow) and their new place saw them in neither and
// went to sleep; without a wakeup they would wait behind this busy
// consumer until the next Push. The moves precede the caller's sleepers
// load, so a peer that parks later re-scans after them.
func (q *Queue) scan(s *shard) (t Task, ok, moved bool) {
	if s != nil {
		if t, ok := s.local.dequeue(); ok {
			return t, true, false
		}
	}
	if t, ok, moved := q.takeOverflow(s); ok {
		return t, true, moved
	}
	if t, ok, moved := q.refillFromGlobal(s); ok {
		return t, true, moved
	}
	if t, ok := q.steal(s); ok {
		return t, true, false
	}
	return Task{}, false, false
}

// popWorker is the engine-side blocking pop, with shard affinity.
func (q *Queue) popWorker(s *shard, stop *atomic.Bool) (Task, bool) {
	for {
		if stop != nil && stop.Load() {
			return Task{}, false
		}
		if t, ok := q.tryPop(s); ok {
			return t, true
		}
		if q.closed.Load() {
			// One last scan closes the race with a Push that was in
			// flight when Close landed.
			return q.tryPop(s)
		}
		// Park. Holding parkMu across the re-scan pairs with Push
		// (enqueue, then signal if sleepers > 0) to rule out lost
		// wakeups: either the re-scan sees the task, or the pusher sees
		// the sleeper and cannot broadcast until we are in Wait.
		q.parkMu.Lock()
		q.sleepers.Add(1)
		if t, ok, moved := q.scan(s); ok {
			q.sleepers.Add(-1)
			if moved {
				// parkMu is held: broadcast directly.
				q.parkCond.Broadcast()
			}
			q.parkMu.Unlock()
			return t, true
		}
		if q.closed.Load() || (stop != nil && stop.Load()) {
			q.sleepers.Add(-1)
			q.parkMu.Unlock()
			continue
		}
		q.parkCond.Wait()
		q.sleepers.Add(-1)
		q.parkMu.Unlock()
	}
}

// Pop removes a task, blocking while the queue is empty. It returns
// ok=false when the queue has closed and drained, or when the provided
// stop flag is raised (checked on every wakeup).
func (q *Queue) Pop(stop *atomic.Bool) (Task, bool) {
	return q.popWorker(nil, stop)
}

// TryPop removes a task without blocking.
func (q *Queue) TryPop() (Task, bool) {
	return q.tryPop(nil)
}

// Len reports the number of queued tasks (global ring + overflow +
// every local shard).
func (q *Queue) Len() int {
	n := q.global.length() + int(q.overflowLen.Load())
	q.shardMu.RLock()
	for _, s := range q.shards {
		n += s.local.length()
	}
	q.shardMu.RUnlock()
	return n
}

// Close wakes all blocked Pops; queued tasks still drain. It waits out
// Pushes that passed their closed check, so once Close returns every
// admitted task is visible to the final scans and every later Push
// fails with ErrQueueClosed.
func (q *Queue) Close() {
	q.closed.Store(true)
	for q.pushing.Load() > 0 {
		runtime.Gosched()
	}
	q.parkMu.Lock()
	q.parkCond.Broadcast()
	q.parkMu.Unlock()
}

// tryPop is one non-blocking scan for the consumer that owns s (nil:
// none), waking parked peers if it moved tasks.
func (q *Queue) tryPop(s *shard) (Task, bool) {
	t, ok, moved := q.scan(s)
	if moved {
		q.wakeSleepers()
	}
	return t, ok
}

// wakeSleepers wakes parked workers, if any: after a Push, or after a
// scan that moved tasks toward one consumer. Callers must not hold
// parkMu.
func (q *Queue) wakeSleepers() {
	if q.sleepers.Load() > 0 {
		q.wakeAll()
	}
}

// wakeAll nudges blocked workers to re-check their stop flags.
func (q *Queue) wakeAll() {
	q.parkMu.Lock()
	q.parkCond.Broadcast()
	q.parkMu.Unlock()
}

// Package engine implements Dandelion's execution engines (§5 of the
// paper). Engines abstract CPU resources: compute engines run one
// untrusted function at a time to completion on a dedicated core, while
// communication engines are trusted and multiplex many I/O-bound
// requests cooperatively (green threads — goroutines here).
//
// Each engine type polls a single type-specific queue, giving late
// binding of tasks to engines. The queue itself is sharded and
// work-stealing (see queue.go); the worker control plane re-assigns
// engines between the two types at runtime via SetCount.
package engine

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the two engine types.
type Kind uint8

const (
	// Compute engines execute untrusted user code.
	Compute Kind = iota
	// Communication engines execute trusted platform I/O functions.
	Communication
)

// String names the kind.
func (k Kind) String() string {
	if k == Compute {
		return "compute"
	}
	return "communication"
}

// Task is one unit of work: a prepared memory context plus metadata,
// reduced here to the closure that performs the execution and delivers
// results back to the dispatcher. Chunk results route through the
// closure, not the queue: a batched compute chunk writes each
// instance's output sets (handed off out of its memory context) into
// the dispatcher's batch store before Do returns, so the engine layer
// never copies or owns payload data.
type Task struct {
	// Do performs the work. Exactly one of Do and DoSharded must be
	// non-nil.
	Do func()
	// DoSharded, when set, is invoked instead of Do and receives the
	// executing engine's stable shard index (its queue-shard slot).
	// Per-engine sharded state — e.g. the dispatcher's hot counters —
	// can index by it directly instead of re-deriving a shard from the
	// goroutine on every task.
	DoSharded func(shard int)
}

// ErrQueueClosed is returned by Push after Close.
var ErrQueueClosed = errors.New("engine: queue closed")

// Pool is a resizable set of engines of one kind polling one queue.
//
// Compute pools run exactly one task at a time per engine (run to
// completion, no context switches). Communication pools have each
// engine spawn a goroutine per task — the cooperative async runtime —
// so one engine can have many requests in flight.
type Pool struct {
	kind  Kind
	queue *Queue

	// commCap bounds the green threads per communication engine; the
	// cooperative runtime has finite capacity, so an overloaded comm
	// engine's queue grows — the signal the control plane needs.
	commCap int

	mu      sync.Mutex
	workers []*worker
	// inflight counts tasks currently executing (all engines).
	inflight atomic.Int64
	// completed counts finished tasks.
	completed atomic.Uint64
	wg        sync.WaitGroup
}

type worker struct {
	stop atomic.Bool
}

// DefaultCommConcurrency is the default green-thread capacity of one
// communication engine.
const DefaultCommConcurrency = 64

// NewPool creates a pool of the given kind polling q, initially with
// zero engines.
func NewPool(kind Kind, q *Queue) *Pool {
	return &Pool{kind: kind, queue: q, commCap: DefaultCommConcurrency}
}

// SetCommConcurrency bounds the number of concurrent green threads per
// communication engine. It affects engines started after the call.
func (p *Pool) SetCommConcurrency(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.commCap = n
}

// Kind reports the pool's engine type.
func (p *Pool) Kind() Kind { return p.kind }

// Queue exposes the pool's task queue.
func (p *Pool) Queue() *Queue { return p.queue }

// Count reports the current number of engines.
func (p *Pool) Count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// InFlight reports the number of currently executing tasks.
func (p *Pool) InFlight() int { return int(p.inflight.Load()) }

// Completed reports the cumulative number of finished tasks.
func (p *Pool) Completed() uint64 { return p.completed.Load() }

// SetCount resizes the pool. Growing spawns engines immediately;
// shrinking marks the excess engines to exit after their current task
// (cores are not preempted).
func (p *Pool) SetCount(n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.workers) < n {
		w := &worker{}
		p.workers = append(p.workers, w)
		p.wg.Add(1)
		go p.run(w)
	}
	if len(p.workers) > n {
		for _, w := range p.workers[n:] {
			w.stop.Store(true)
		}
		p.workers = p.workers[:n]
		p.queue.wakeAll()
	}
}

func (p *Pool) run(w *worker) {
	defer p.wg.Done()
	// Each engine owns a local queue shard; on exit the shard's leftover
	// tasks go back into circulation so shrinking never strands work.
	shard := p.queue.addWorker()
	defer p.queue.releaseWorker(shard)
	if p.kind == Compute {
		for {
			t, ok := p.queue.popWorker(shard, &w.stop)
			if !ok {
				return
			}
			// Run to completion on this engine; nothing else runs here.
			p.execute(t, shard.id)
		}
	}
	// Communication: cooperative green thread per request, bounded by
	// the engine's concurrency capacity. The engine keeps polling while
	// I/O is in flight; at capacity it stops popping, so queue growth
	// reflects overload.
	p.mu.Lock()
	capacity := p.commCap
	p.mu.Unlock()
	sem := make(chan struct{}, capacity)
	for {
		sem <- struct{}{} // reserve a green-thread slot first
		t, ok := p.queue.popWorker(shard, &w.stop)
		if !ok {
			<-sem
			return
		}
		p.wg.Add(1)
		go func() {
			defer func() {
				<-sem
				p.wg.Done()
			}()
			p.execute(t, shard.id)
		}()
	}
}

func (p *Pool) execute(t Task, shard int) {
	p.inflight.Add(1)
	defer func() {
		p.inflight.Add(-1)
		p.completed.Add(1)
	}()
	switch {
	case t.DoSharded != nil:
		t.DoSharded(shard)
	case t.Do != nil:
		t.Do()
	}
}

// Shutdown stops all engines and waits for in-flight work to finish.
// The queue is closed; pending tasks are dropped once workers exit.
func (p *Pool) Shutdown() {
	p.queue.Close()
	p.mu.Lock()
	for _, w := range p.workers {
		w.stop.Store(true)
	}
	p.workers = nil
	p.mu.Unlock()
	p.queue.wakeAll()
	p.wg.Wait()
}

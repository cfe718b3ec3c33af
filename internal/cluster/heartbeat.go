// Coordinator-side failure detection. The Tracker wraps a Manager with
// heartbeat-tracked membership: workers enter through Join (the
// frontend's POST /cluster/join lands here), prove liveness through
// Heartbeat, and are evicted from the manager once they miss the
// configured number of beats. Eviction is what makes the manager's
// mid-batch reroute complete: a failed chunk re-snapshots live
// membership before retrying (see InvokeBatch), so chunks in flight
// on a dying worker flow onto survivors instead of retrying into the
// corpse. Evicted workers are reported in ClusterStats — never silently
// dropped — until they re-join.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracker adds heartbeat liveness tracking and failure-driven eviction
// on top of a Manager. Only workers admitted through Join are tracked;
// workers registered directly on the manager (in-process nodes) are
// never evicted by the tracker.
type Tracker struct {
	m        *Manager
	interval time.Duration
	misses   int
	now      func() time.Time

	mu   sync.Mutex
	last map[string]time.Time
	// evicted maps evicted worker names to the last heartbeat each was
	// seen sending, kept (and reported) until the worker re-joins.
	evicted map[string]time.Time

	heartbeats atomic.Uint64
	evictions  atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// NewTracker builds a tracker over m that evicts a worker after it goes
// misses*interval without a heartbeat. now overrides the clock (tests);
// nil uses time.Now. interval and misses are clamped to sane minimums
// (1ms, 1 miss).
func NewTracker(m *Manager, interval time.Duration, misses int, now func() time.Time) *Tracker {
	if interval <= 0 {
		interval = time.Millisecond
	}
	if misses < 1 {
		misses = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Tracker{
		m:        m,
		interval: interval,
		misses:   misses,
		now:      now,
		last:     map[string]time.Time{},
		evicted:  map[string]time.Time{},
	}
}

// Manager returns the manager the tracker evicts from.
func (t *Tracker) Manager() *Manager { return t.m }

// Join admits (or re-admits) a worker: it is registered with the
// manager and its liveness clock starts now. A join under a name that
// is already registered replaces the old node — a worker that restarts
// and re-joins under the same name simply supersedes its old
// registration — and a join by a previously evicted worker clears its
// eviction record.
func (t *Tracker) Join(name string, n Node) error {
	if name == "" {
		return fmt.Errorf("%w: empty worker name", ErrNoSuchNode)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.m.Register(name, n); err != nil {
		// Re-join: replace the stale registration.
		if derr := t.m.Deregister(name); derr != nil {
			return err
		}
		if err := t.m.Register(name, n); err != nil {
			return err
		}
	}
	t.last[name] = t.now()
	delete(t.evicted, name)
	return nil
}

// Heartbeat records one beat from a worker. An unknown name — never
// joined, already evicted, or forgotten across a coordinator restart —
// returns ErrNoSuchNode, which the frontend surfaces as 404 so the
// worker's Heartbeater re-joins.
func (t *Tracker) Heartbeat(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.last[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, name)
	}
	t.last[name] = t.now()
	t.heartbeats.Add(1)
	return nil
}

// Sweep evicts every tracked worker whose last heartbeat is older than
// misses*interval and returns the names evicted this pass, in sorted
// order. The periodic loop started by Start calls it every interval;
// tests call it directly against a virtual clock.
func (t *Tracker) Sweep() []string {
	horizon := time.Duration(t.misses) * t.interval
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var gone []string
	for name, last := range t.last {
		if now.Sub(last) > horizon {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		// The worker may have been deregistered by hand between beats;
		// eviction bookkeeping still applies.
		t.m.Deregister(name)
		t.evicted[name] = t.last[name]
		delete(t.last, name)
		t.evictions.Add(1)
	}
	return gone
}

// Start launches the periodic sweep loop; Stop ends it. Start after
// Stop restarts it; a second Start is a no-op.
func (t *Tracker) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	t.stop, t.done = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(t.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Sweep()
			}
		}
	}()
}

// Stop ends the sweep loop and waits for it to exit.
func (t *Tracker) Stop() {
	t.mu.Lock()
	stop, done := t.stop, t.done
	t.stop, t.done = nil, nil
	t.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// EvictedWorker is one evicted worker's record in ClusterStats: the
// name, the last heartbeat the tracker saw, and how stale that beat is
// at snapshot time.
type EvictedWorker struct {
	Name      string
	LastBeat  time.Time
	SinceBeat time.Duration
}

// AggregateStats merges the cluster-wide gauges exactly as
// Manager.AggregateStats does, then adds the tracker's heartbeat and
// eviction view: total beats accepted, total evictions, the configured
// horizon, and one record per currently-evicted worker — an evicted
// worker is reported, not silently dropped, until it re-joins.
func (t *Tracker) AggregateStats() ClusterStats {
	cs := t.m.AggregateStats()
	cs.Heartbeats = t.heartbeats.Load()
	cs.Evictions = t.evictions.Load()
	cs.HeartbeatInterval = t.interval
	cs.HeartbeatMisses = t.misses
	t.mu.Lock()
	now := t.now()
	for name, last := range t.evicted {
		cs.Evicted = append(cs.Evicted, EvictedWorker{
			Name: name, LastBeat: last, SinceBeat: now.Sub(last),
		})
	}
	t.mu.Unlock()
	sort.Slice(cs.Evicted, func(i, j int) bool { return cs.Evicted[i].Name < cs.Evicted[j].Name })
	return cs
}

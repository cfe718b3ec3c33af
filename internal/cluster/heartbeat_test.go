package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dandelion/internal/core"
)

// virtualClock is a hand-advanced clock for deterministic sweep tests.
type virtualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *virtualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *virtualClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestTrackerEvictsAfterMissedBeats(t *testing.T) {
	clk := &virtualClock{t: time.Unix(1000, 0)}
	m := NewManager()
	tr := NewTracker(m, time.Second, 3, clk.now)

	if err := tr.Join("w1", &fakeNode{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Join("w2", &fakeNode{}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Workers()); got != 2 {
		t.Fatalf("workers = %d, want 2", got)
	}

	// w1 keeps beating; w2 goes silent past the 3-beat horizon.
	clk.advance(2 * time.Second)
	if err := tr.Heartbeat("w1"); err != nil {
		t.Fatal(err)
	}
	clk.advance(1500 * time.Millisecond) // w2: 3.5s silent > 3s horizon
	gone := tr.Sweep()
	if len(gone) != 1 || gone[0] != "w2" {
		t.Fatalf("evicted %v, want [w2]", gone)
	}
	if ws := m.Workers(); len(ws) != 1 || ws[0] != "w1" {
		t.Fatalf("workers after sweep = %v, want [w1]", ws)
	}

	// The eviction is reported, not silently dropped.
	cs := tr.AggregateStats()
	if cs.Evictions != 1 || cs.Heartbeats != 1 {
		t.Fatalf("Evictions=%d Heartbeats=%d, want 1 and 1", cs.Evictions, cs.Heartbeats)
	}
	if len(cs.Evicted) != 1 || cs.Evicted[0].Name != "w2" {
		t.Fatalf("Evicted = %+v, want one w2 record", cs.Evicted)
	}
	if cs.Evicted[0].SinceBeat != 3500*time.Millisecond {
		t.Fatalf("SinceBeat = %v, want 3.5s", cs.Evicted[0].SinceBeat)
	}
	if cs.HeartbeatInterval != time.Second || cs.HeartbeatMisses != 3 {
		t.Fatalf("horizon gauges = %v/%d", cs.HeartbeatInterval, cs.HeartbeatMisses)
	}

	// A beat from the evicted worker is refused — the signal that makes
	// its Heartbeater re-join.
	if err := tr.Heartbeat("w2"); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("heartbeat after eviction: err = %v, want ErrNoSuchNode", err)
	}

	// Re-joining clears the eviction record and restores membership.
	if err := tr.Join("w2", &fakeNode{}); err != nil {
		t.Fatal(err)
	}
	cs = tr.AggregateStats()
	if len(cs.Evicted) != 0 {
		t.Fatalf("Evicted after re-join = %+v, want empty", cs.Evicted)
	}
	if got := len(m.Workers()); got != 2 {
		t.Fatalf("workers after re-join = %d, want 2", got)
	}
}

func TestTrackerHeartbeatUnknownWorker(t *testing.T) {
	tr := NewTracker(NewManager(), time.Second, 3, nil)
	if err := tr.Heartbeat("ghost"); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
}

// TestTrackerJoinReplaces: a worker restarting and re-joining under its
// old name supersedes the stale registration instead of erroring.
func TestTrackerJoinReplaces(t *testing.T) {
	m := NewManager()
	tr := NewTracker(m, time.Second, 3, nil)
	old, fresh := &fakeNode{}, &fakeNode{}
	if err := tr.Join("w1", old); err != nil {
		t.Fatal(err)
	}
	if err := tr.Join("w1", fresh); err != nil {
		t.Fatalf("re-join: %v", err)
	}
	if got := len(m.Workers()); got != 1 {
		t.Fatalf("workers = %d, want 1", got)
	}
	if _, err := m.Invoke(bg, core.Request{Composition: "C"}); err != nil {
		t.Fatal(err)
	}
	if old.calls.Load() != 0 || fresh.calls.Load() != 1 {
		t.Fatalf("calls old=%d fresh=%d, want 0 and 1", old.calls.Load(), fresh.calls.Load())
	}
}

// TestTrackerSweepLoop exercises the Start/Stop periodic loop against
// the real clock: a joined worker that never beats is evicted within a
// few intervals.
func TestTrackerSweepLoop(t *testing.T) {
	m := NewManager()
	tr := NewTracker(m, 10*time.Millisecond, 2, nil)
	if err := tr.Join("w1", &fakeNode{}); err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for tr.AggregateStats().Evictions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never evicted by the sweep loop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(m.Workers()); got != 0 {
		t.Fatalf("workers = %d after eviction, want 0", got)
	}
}

// sabotageNode fails its whole chunk and, on the first call,
// deregisters another worker mid-batch — reproducing a worker that is
// deregistered (or evicted) between a chunk starting and its retry.
type sabotageNode struct {
	failingBatchNode
	m      *Manager
	victim string
	once   sync.Once
}

func (s *sabotageNode) InvokeBatch(ctx context.Context, reqs []core.Request) []core.Result {
	s.once.Do(func() { s.m.Deregister(s.victim) })
	return s.failingBatchNode.InvokeBatch(ctx, reqs)
}

// TestRerouteSkipsDeregisteredSurvivor is the stale-snapshot
// regression: pickSurvivor must choose from membership as it is at
// retry time, not from the snapshot taken before the chunk ran. Here
// the would-be survivor ("stale", first after "dying" in the old
// snapshot) is deregistered while the chunk runs, so the retry must
// land on "live".
func TestRerouteSkipsDeregisteredSurvivor(t *testing.T) {
	m := NewManager()
	dying := &sabotageNode{m: m, victim: "stale"}
	stale := &fakeNode{}
	live := &fakeNode{}
	// Registration order makes "dying" a fresh manager's first pick for
	// a one-request batch and "stale" the survivor a stale snapshot
	// would pick.
	if err := m.Register("dying", dying); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("stale", stale); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("live", live); err != nil {
		t.Fatal(err)
	}

	if res := m.InvokeBatch(bg, batchReqs("alice", "C", 1)); res[0].Err != nil {
		t.Fatalf("request not rerouted: %v", res[0].Err)
	}
	if stale.calls.Load() != 0 {
		t.Fatalf("deregistered worker served %d invocations, want 0", stale.calls.Load())
	}
	if live.calls.Load() != 1 {
		t.Fatalf("live worker served %d invocations, want 1", live.calls.Load())
	}
	for _, s := range m.Stats() {
		if s.Name == "dying" && s.Rerouted != 1 {
			t.Fatalf("dying.Rerouted = %d, want 1", s.Rerouted)
		}
	}
}

package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dandelion/internal/core"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
)

// fakeNode is a scripted two-method Node: it counts calls and records
// every request it was handed, so tests can assert what arrived.
// InvokeBatch runs the chunk through Invoke and counts the batched call.
type fakeNode struct {
	calls    atomic.Int64
	inflight atomic.Int64
	delay    time.Duration
	gate     chan struct{} // when non-nil, Invoke holds until it closes
	fail     bool

	batchCalls atomic.Int64
	mu         sync.Mutex
	seen       []core.Request
}

func (f *fakeNode) Invoke(ctx context.Context, req core.Request) (map[string][]memctx.Item, error) {
	f.calls.Add(1)
	f.mu.Lock()
	f.seen = append(f.seen, req)
	f.mu.Unlock()
	f.inflight.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.gate != nil {
		<-f.gate
	}
	f.inflight.Add(-1)
	if f.fail {
		return nil, errors.New("boom")
	}
	return map[string][]memctx.Item{"Out": {{Name: "r", Data: []byte(req.Composition)}}}, nil
}

func (f *fakeNode) InvokeBatch(ctx context.Context, reqs []core.Request) []core.Result {
	f.batchCalls.Add(1)
	out := make([]core.Result, len(reqs))
	for i, r := range reqs {
		outs, err := f.Invoke(ctx, r)
		out[i] = core.Result{Outputs: outs, Err: err}
	}
	return out
}

var bg = context.Background()

func TestNoWorkers(t *testing.T) {
	m := NewManager()
	if _, err := m.Invoke(bg, core.Request{Composition: "X"}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterErrors(t *testing.T) {
	m := NewManager()
	n := &fakeNode{}
	if err := m.Register("w1", n); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("w1", n); !errors.Is(err, ErrDupWorker) {
		t.Fatalf("dup err = %v", err)
	}
	if err := m.Deregister("ghost"); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("deregister err = %v", err)
	}
	if err := m.Deregister("w1"); err != nil {
		t.Fatal(err)
	}
	if len(m.Workers()) != 0 {
		t.Fatal("worker list not empty after deregister")
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	m := NewManager()
	nodes := []*fakeNode{{}, {}, {}}
	for i, n := range nodes {
		m.Register(string(rune('a'+i)), n)
	}
	for i := 0; i < 30; i++ {
		if _, err := m.Invoke(bg, core.Request{Composition: "C"}); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		if n.calls.Load() != 10 {
			t.Fatalf("node %d got %d calls, want 10", i, n.calls.Load())
		}
	}
}

// TestStatsAndFailures: the routing counters of a worker that fails
// everything it is sent (each failure rerouted onto the survivor) and of
// the survivor.
func TestStatsAndFailures(t *testing.T) {
	m := NewManager()
	ok := &fakeNode{}
	bad := &fakeNode{fail: true}
	m.Register("ok", ok)
	m.Register("bad", bad)
	for i := 0; i < 10; i++ {
		if _, err := m.Invoke(bg, core.Request{Composition: "C"}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	want := map[string]WorkerStats{
		"ok":  {Name: "ok", Total: 10},
		"bad": {Name: "bad", Total: 5, Failures: 5, Rerouted: 5},
	}
	stats := m.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	for _, s := range stats {
		if s != want[s.Name] {
			t.Fatalf("stats = %+v, want %+v", s, want[s.Name])
		}
	}
}

func TestConcurrentInvocations(t *testing.T) {
	m := NewManager()
	nodes := []*fakeNode{{delay: time.Millisecond}, {delay: time.Millisecond}}
	m.Register("a", nodes[0])
	m.Register("b", nodes[1])
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Invoke(bg, core.Request{Composition: "C"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	total := nodes[0].calls.Load() + nodes[1].calls.Load()
	if total != 100 {
		t.Fatalf("total calls = %d", total)
	}
	// Both nodes must have participated.
	if nodes[0].calls.Load() == 0 || nodes[1].calls.Load() == 0 {
		t.Fatalf("load not spread: %d/%d", nodes[0].calls.Load(), nodes[1].calls.Load())
	}
}

// batchReqs builds n requests of one composition under one tenant,
// request i carrying the letter 'a'+i.
func batchReqs(tenant, name string, n int) []core.Request {
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{
			Composition: name, Tenant: tenant,
			Inputs: map[string][]memctx.Item{"In": {{Name: "x", Data: []byte{'a' + byte(i)}}}},
		}
	}
	return reqs
}

func TestInvokeBatchNoWorkers(t *testing.T) {
	m := NewManager()
	res := m.InvokeBatch(bg, batchReqs("", "X", 3))
	for i, r := range res {
		if !errors.Is(r.Err, ErrNoWorkers) {
			t.Fatalf("result %d err = %v", i, r.Err)
		}
	}
}

func TestInvokeBatchRoundRobinSplits(t *testing.T) {
	m := NewManager()
	nodes := []*fakeNode{{}, {}, {}}
	for i, n := range nodes {
		if err := m.Register(string(rune('a'+i)), n); err != nil {
			t.Fatal(err)
		}
	}
	res := m.InvokeBatch(bg, batchReqs("", "C", 9))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}
	// Every worker must have received exactly one chunk of 3 via the
	// batched interface.
	for i, n := range nodes {
		if n.batchCalls.Load() != 1 {
			t.Fatalf("node %d batchCalls = %d, want 1", i, n.batchCalls.Load())
		}
		if n.calls.Load() != 3 {
			t.Fatalf("node %d handled %d invocations, want 3", i, n.calls.Load())
		}
	}
}

// TestInvokeBatchCountsFailures: a lone worker that fails its chunk
// wholesale gets it once more in place, and both attempts count.
func TestInvokeBatchCountsFailures(t *testing.T) {
	m := NewManager()
	n := &fakeNode{fail: true}
	if err := m.Register("w", n); err != nil {
		t.Fatal(err)
	}
	res := m.InvokeBatch(bg, batchReqs("", "C", 3))
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("result %d unexpectedly succeeded", i)
		}
	}
	st := m.Stats()
	if st[0].Failures != 6 || st[0].Total != 6 || st[0].Rerouted != 1 || st[0].InFlight != 0 {
		t.Fatalf("stats = %+v", st[0])
	}
	if n.batchCalls.Load() != 2 {
		t.Fatalf("batch calls = %d, want 2", n.batchCalls.Load())
	}
}

// TestInvokeThreadsRequest: the manager hands the worker the request it
// was given — tenant and key included — on both calls.
func TestInvokeThreadsRequest(t *testing.T) {
	m := NewManager()
	n := &fakeNode{}
	if err := m.Register("w", n); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Invoke(bg, core.Request{Composition: "C", Tenant: "alice", Key: "k1"}); err != nil {
		t.Fatal(err)
	}
	reqs := batchReqs("bob", "C", 1)
	reqs[0].Key = "k2"
	if res := m.InvokeBatch(bg, reqs); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if len(n.seen) != 2 || n.seen[0].Tenant != "alice" || n.seen[0].Key != "k1" ||
		n.seen[1].Tenant != "bob" || n.seen[1].Key != "k2" {
		t.Fatalf("requests seen = %+v", n.seen)
	}
}

// failingBatchNode fails every request wholesale, like a dead worker.
type failingBatchNode struct {
	batchCalls atomic.Int64
}

func (f *failingBatchNode) Invoke(ctx context.Context, req core.Request) (map[string][]memctx.Item, error) {
	return nil, errors.New("node down")
}

func (f *failingBatchNode) InvokeBatch(ctx context.Context, reqs []core.Request) []core.Result {
	f.batchCalls.Add(1)
	out := make([]core.Result, len(reqs))
	for i := range out {
		out[i].Err = errors.New("node down")
	}
	return out
}

// TestInvokeBatchReroutesFailedChunk is the mid-batch re-routing path:
// a worker that fails its whole chunk must not sink those requests —
// the chunk is re-queued on the surviving worker.
func TestInvokeBatchReroutesFailedChunk(t *testing.T) {
	m := NewManager()
	dead := &failingBatchNode{}
	good := &fakeNode{}
	if err := m.Register("dead", dead); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("good", good); err != nil {
		t.Fatal(err)
	}
	res := m.InvokeBatch(bg, batchReqs("alice", "C", 8))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("result %d not rerouted: %v", i, r.Err)
		}
	}
	// The good worker served its own chunk plus the dead worker's.
	if good.calls.Load() != 8 {
		t.Fatalf("good worker handled %d invocations, want 8", good.calls.Load())
	}
	var deadStats, goodStats WorkerStats
	for _, s := range m.Stats() {
		switch s.Name {
		case "dead":
			deadStats = s
		case "good":
			goodStats = s
		}
	}
	if deadStats.Rerouted != 1 || deadStats.Failures != 4 {
		t.Fatalf("dead stats = %+v", deadStats)
	}
	if goodStats.Failures != 0 || goodStats.Total != 8 {
		t.Fatalf("good stats = %+v", goodStats)
	}
}

// TestInvokeBatchKeepsPerRequestErrors: per-request application errors
// (not a wholesale chunk failure) must NOT trigger re-routing.
type halfFailNode struct {
	fakeNode
}

func (f *halfFailNode) InvokeBatch(ctx context.Context, reqs []core.Request) []core.Result {
	out := make([]core.Result, len(reqs))
	for i := range reqs {
		if i%2 == 0 {
			out[i].Err = errors.New("bad input")
		} else {
			out[i].Outputs = map[string][]memctx.Item{"Out": {{Name: "r"}}}
		}
	}
	f.batchCalls.Add(1)
	return out
}

func TestInvokeBatchKeepsPerRequestErrors(t *testing.T) {
	m := NewManager()
	flaky := &halfFailNode{}
	spare := &fakeNode{}
	if err := m.Register("flaky", flaky); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("spare", spare); err != nil {
		t.Fatal(err)
	}
	// Each worker gets a chunk of 2; the first request of flaky's fails
	// with an application error, which must stand (no retry).
	res := m.InvokeBatch(bg, batchReqs("", "C", 4))
	errs := 0
	for _, r := range res {
		if r.Err != nil {
			errs++
		}
	}
	if errs != 1 {
		t.Fatalf("errors = %d, want 1", errs)
	}
	if spare.batchCalls.Load() != 1 || spare.calls.Load() != 2 {
		t.Fatalf("spare worker got batch=%d calls=%d, want its own chunk of 2",
			spare.batchCalls.Load(), spare.calls.Load())
	}
	for _, s := range m.Stats() {
		if s.Rerouted != 0 {
			t.Fatalf("rerouted = %+v", s)
		}
	}
}

// statsFake is a Node + Admin whose snapshot is scripted: it can
// report fixed gauges, error, or block until released — the shapes the
// aggregation hardening is tested against.
type statsFake struct {
	fakeNode
	stats   core.Stats
	statErr error
	block   chan struct{} // when non-nil, NodeStats waits on it
	polled  atomic.Int64
}

func (f *statsFake) SetTenantWeight(string, int) {}

func (f *statsFake) NodeStats() (core.Stats, error) {
	f.polled.Add(1)
	if f.block != nil {
		<-f.block
	}
	return f.stats, f.statErr
}

func tstats(tenant string, weight int, completed uint64) []sched.TenantStats {
	return []sched.TenantStats{{Tenant: tenant, Weight: weight, Completed: completed, Dispatched: completed}}
}

// TestAggregateStatsMergesWorkers: counters sum, per-tenant gauges
// merge across workers, and workers without Admin are ignored.
func TestAggregateStatsMergesWorkers(t *testing.T) {
	m := NewManager()
	w1 := &statsFake{stats: core.Stats{
		Invocations: 10, Batches: 2, ComputeEngines: 2, ComputeQueueLen: 3,
		EngineResizes: 1, Tenants: append(tstats("alice", 2, 5), tstats("bob", 1, 1)...),
	}}
	w2 := &statsFake{stats: core.Stats{
		Invocations: 5, Batches: 1, ComputeEngines: 4, ComputeQueueLen: 1,
		EngineResizes: 2, Tenants: tstats("alice", 2, 7),
	}}
	plain := &fakeNode{} // no Admin: routing only
	m.Register("w1", w1)
	m.Register("w2", w2)
	m.Register("plain", plain)

	cs := m.AggregateStats()
	if cs.Workers != 3 || cs.Reporting != 2 || len(cs.StatsErrors) != 0 {
		t.Fatalf("workers/reporting/errors = %d/%d/%v", cs.Workers, cs.Reporting, cs.StatsErrors)
	}
	if cs.Invocations != 15 || cs.Batches != 3 || cs.ComputeEngines != 6 ||
		cs.ComputeQueueLen != 4 || cs.EngineResizes != 3 {
		t.Fatalf("summed gauges wrong: %+v", cs)
	}
	byTenant := map[string]sched.TenantStats{}
	for _, ts := range cs.Tenants {
		byTenant[ts.Tenant] = ts
	}
	if byTenant["alice"].Completed != 12 {
		t.Fatalf("alice completed = %d, want 12 (5+7)", byTenant["alice"].Completed)
	}
	if byTenant["bob"].Completed != 1 {
		t.Fatalf("bob completed = %d, want 1", byTenant["bob"].Completed)
	}
	if len(cs.Routing) != 3 {
		t.Fatalf("routing entries = %d, want 3", len(cs.Routing))
	}
}

// TestAggregateStatsSkipsErroringWorker: a worker whose NodeStats
// errors is named in StatsErrors and contributes nothing — no panic, no
// partial counts.
func TestAggregateStatsSkipsErroringWorker(t *testing.T) {
	m := NewManager()
	good := &statsFake{stats: core.Stats{Invocations: 7, Tenants: tstats("alice", 1, 7)}}
	bad := &statsFake{stats: core.Stats{Invocations: 999}, statErr: errors.New("stats rpc timeout")}
	m.Register("good", good)
	m.Register("bad", bad)

	cs := m.AggregateStats()
	if cs.Workers != 2 || cs.Reporting != 1 {
		t.Fatalf("workers/reporting = %d/%d, want 2/1", cs.Workers, cs.Reporting)
	}
	if len(cs.StatsErrors) != 1 || cs.StatsErrors[0] != "bad" {
		t.Fatalf("StatsErrors = %v, want [bad]", cs.StatsErrors)
	}
	if cs.Invocations != 7 {
		t.Fatalf("Invocations = %d, want 7 (erroring worker skipped)", cs.Invocations)
	}
}

// TestAggregateStatsMidFlightDeregister: a worker deregistered while
// its (slow) snapshot is being read is still counted exactly once from
// the aggregation's member snapshot, and concurrent Deregister never
// races or panics the merge.
func TestAggregateStatsMidFlightDeregister(t *testing.T) {
	m := NewManager()
	slow := &statsFake{stats: core.Stats{Invocations: 3}, block: make(chan struct{})}
	fast := &statsFake{stats: core.Stats{Invocations: 4}}
	m.Register("slow", slow)
	m.Register("fast", fast)

	csCh := make(chan ClusterStats, 1)
	go func() { csCh <- m.AggregateStats() }()
	// Wait until the aggregation is inside the slow worker's NodeStats,
	// then deregister it mid-flight and release.
	deadline := time.After(5 * time.Second)
	for slow.polled.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("aggregation never polled the slow worker")
		case <-time.After(time.Millisecond):
		}
	}
	if err := m.Deregister("slow"); err != nil {
		t.Fatal(err)
	}
	close(slow.block)
	cs := <-csCh

	if cs.Workers != 2 || cs.Reporting != 2 {
		t.Fatalf("workers/reporting = %d/%d, want 2/2 (snapshot semantics)", cs.Workers, cs.Reporting)
	}
	if cs.Invocations != 7 {
		t.Fatalf("Invocations = %d, want 7 — deregistered worker counted exactly once", cs.Invocations)
	}
	// A fresh aggregation no longer sees the deregistered worker.
	if cs2 := m.AggregateStats(); cs2.Workers != 1 || cs2.Invocations != 4 {
		t.Fatalf("post-deregister aggregate = %+v", cs2)
	}
}

// TestSetTenantWeightFanOut: the manager applies a weight update on
// every Admin worker and reports the count; non-Admin workers are
// skipped, not failed.
func TestSetTenantWeightFanOut(t *testing.T) {
	m := NewManager()
	w1, err := core.NewPlatform(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Shutdown()
	w2, err := core.NewPlatform(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Shutdown()
	m.Register("w1", w1)
	m.Register("w2", w2)
	m.Register("plain", &fakeNode{})

	if n := m.SetTenantWeight("alice", 5); n != 2 {
		t.Fatalf("fan-out applied to %d workers, want 2", n)
	}
	if w := w1.TenantWeight("alice"); w != 5 {
		t.Fatalf("w1 weight = %d, want 5", w)
	}
	if w := w2.TenantWeight("alice"); w != 5 {
		t.Fatalf("w2 weight = %d, want 5", w)
	}
}

// openFake is a fakeNode whose circuit breaker reports open, like a
// RemoteNode inside its cooldown.
type openFake struct{ fakeNode }

func (*openFake) BreakerState() string                       { return BreakerOpen }
func (*openFake) BreakerCounters() (trips, fastFails uint64) { return 1, 0 }

// TestInvokeBatchSkipsOpenBreaker: a batch routes around a worker whose
// breaker is open, as a single invoke does, instead of handing it a
// chunk to fast-fail and reroute. When every breaker is open the batch
// still goes out: a fast refusal from a real worker beats ErrNoWorkers
// on a cluster that may be seconds from recovery.
func TestInvokeBatchSkipsOpenBreaker(t *testing.T) {
	m := NewManager()
	open, healthy := &openFake{}, &fakeNode{}
	if err := m.Register("open", open); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("healthy", healthy); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		for i, r := range m.InvokeBatch(bg, batchReqs("", "C", 4)) {
			if r.Err != nil {
				t.Fatalf("batch %d result %d: %v", b, i, r.Err)
			}
		}
	}
	if n := open.batchCalls.Load(); n != 0 {
		t.Fatalf("open-breaker worker got %d batch calls, want 0", n)
	}
	if n := healthy.calls.Load(); n != 12 {
		t.Fatalf("healthy worker served %d invocations, want 12", n)
	}

	all := NewManager()
	a, b := &openFake{}, &openFake{}
	all.Register("a", a)
	all.Register("b", b)
	for i, r := range all.InvokeBatch(bg, batchReqs("", "C", 4)) {
		if r.Err != nil {
			t.Fatalf("all open: result %d: %v", i, r.Err)
		}
	}
	if n := a.calls.Load() + b.calls.Load(); n != 4 {
		t.Fatalf("all open: workers served %d invocations, want 4", n)
	}
}

// TestInvokeReroutesKeyed: a single invoke takes the batch path, so a
// worker's failure is retried on a survivor under a key the manager
// minted, which the survivor's dedup table absorbs if the first attempt
// did run.
func TestInvokeReroutesKeyed(t *testing.T) {
	m := NewManager()
	bad, ok := &fakeNode{fail: true}, &fakeNode{}
	m.Register("bad", bad)
	m.Register("ok", ok)
	failed := 0
	for i := 0; i < 10; i++ {
		if _, err := m.Invoke(bg, core.Request{Composition: "C"}); err != nil {
			failed++
		}
	}
	if failed != 0 {
		t.Fatalf("%d of 10 invokes failed, want every one rerouted", failed)
	}
	if m.keyPrefix == "" {
		t.Fatal("manager has no key prefix")
	}
	for _, n := range []*fakeNode{bad, ok} {
		for _, k := range keysSeen(n) {
			if !strings.HasPrefix(k, m.keyPrefix+"-") {
				t.Fatalf("worker saw key %q, want prefix %q", k, m.keyPrefix+"-")
			}
		}
	}
}

package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dandelion/internal/engine"
)

// drain pops tasks from q one at a time, executing each synchronously,
// until the queue is momentarily empty. Executing a task triggers the
// scheduler's completion pump, so the observed execution order is the
// DRR dispatch order.
func drain(q *engine.Queue, limit int) int {
	n := 0
	for n < limit {
		t, ok := q.TryPop()
		if !ok {
			return n
		}
		t.Do()
		n++
	}
	return n
}

// TestDRRInterleavesTenants is the deterministic fairness core: one
// tenant floods 40 tasks, then an interactive tenant submits 2. With
// equal weights the interactive tasks must execute within roughly one
// window plus one DRR round — not behind the whole flood backlog.
func TestDRRInterleavesTenants(t *testing.T) {
	q := engine.NewQueue()
	defer q.Close()
	const window = 4
	s := New(q, Config{Window: window})

	var order []string
	var mu sync.Mutex
	submit := func(tenant string) {
		if err := s.Submit(tenant, Task{Do: func() {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		submit("flood")
	}
	submit("interactive")
	submit("interactive")
	if got := drain(q, 100); got != 42 {
		t.Fatalf("executed %d tasks, want 42", got)
	}

	last := -1
	for i, tenant := range order {
		if tenant == "interactive" {
			last = i
		}
	}
	// The window was already full of flood tasks when the interactive
	// tenant arrived; after those, DRR alternates. Both interactive
	// tasks must land within window + a couple of rounds.
	if last < 0 || last > window+6 {
		t.Fatalf("interactive tasks finished at position %d of %d: %v", last, len(order), order[:12])
	}
}

// TestDRRWeights checks weighted shares with a strict window of 1, where
// execution order equals dispatch order exactly: weight 2 gets two slots
// per round to weight 1's one.
func TestDRRWeights(t *testing.T) {
	q := engine.NewQueue()
	defer q.Close()
	s := New(q, Config{Window: 1, Weights: map[string]int{"a": 2, "b": 1}})

	var order []string
	var mu sync.Mutex
	for i := 0; i < 30; i++ {
		tenant := "a"
		if err := s.Submit(tenant, Task{Do: func() {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		tenant := "b"
		if err := s.Submit(tenant, Task{Do: func() {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := drain(q, 100); got != 60 {
		t.Fatalf("executed %d tasks, want 60", got)
	}
	a, b := 0, 0
	for _, tenant := range order[:30] {
		if tenant == "a" {
			a++
		} else {
			b++
		}
	}
	// Exactly 2:1 while both stay backlogged (±1 for round boundaries).
	if a < 19 || a > 21 || a+b != 30 {
		t.Fatalf("first 30 dispatches: a=%d b=%d, want ~20/10", a, b)
	}
}

func TestSubmitAfterCloseAndReject(t *testing.T) {
	q := engine.NewQueue()
	defer q.Close()
	s := New(q, Config{Window: 1})

	ran := make(chan struct{})
	if err := s.Submit("t", Task{Do: func() { close(ran) }}); err != nil {
		t.Fatal(err)
	}
	// Parked behind the window=1 slot: must be rejected on Close.
	var rejectedErr error
	if err := s.Submit("t", Task{
		Do:       func() { t.Error("parked task ran after Close") },
		OnReject: func(err error) { rejectedErr = err },
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !errors.Is(rejectedErr, ErrClosed) {
		t.Fatalf("OnReject got %v, want ErrClosed", rejectedErr)
	}
	if err := s.Submit("t", Task{Do: func() {}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	// The already-dispatched task still runs.
	if got := drain(q, 10); got != 1 {
		t.Fatalf("drained %d, want 1", got)
	}
	<-ran
	st := s.Stats()
	if len(st) != 1 || st[0].Rejected != 1 || st[0].Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGaugesAndDispatchWait drives a virtual clock: the second task is
// parked for 5ms of virtual time behind a window of 1, so its dispatch
// wait is exactly 5ms.
func TestGaugesAndDispatchWait(t *testing.T) {
	q := engine.NewQueue()
	defer q.Close()
	var now atomic.Int64 // virtual nanos
	clock := func() time.Time { return time.Unix(0, now.Load()) }
	s := New(q, Config{Window: 1, Now: clock})

	s.Submit("t", Task{Do: func() {}})
	s.Submit("t", Task{Do: func() {}})

	st := s.Stats()[0]
	if st.Queued != 1 || st.Running != 1 || st.Dispatched != 1 {
		t.Fatalf("pre-drain stats = %+v", st)
	}

	now.Store(int64(5 * time.Millisecond))
	if got := drain(q, 10); got != 2 {
		t.Fatalf("drained %d, want 2", got)
	}
	st = s.Stats()[0]
	if st.Queued != 0 || st.Running != 0 || st.Completed != 2 {
		t.Fatalf("post-drain stats = %+v", st)
	}
	// First task waited 0, second waited 5ms.
	if st.MaxDispatchWait != 5*time.Millisecond || st.P99DispatchWait != 5*time.Millisecond {
		t.Fatalf("waits = %+v", st)
	}
	if st.AvgDispatchWait != 2500*time.Microsecond {
		t.Fatalf("avg wait = %v", st.AvgDispatchWait)
	}
}

func TestMergeStats(t *testing.T) {
	a := []TenantStats{{Tenant: "x", Weight: 2, Dispatched: 3, Completed: 3,
		AvgDispatchWait: 10 * time.Millisecond, P99DispatchWait: 20 * time.Millisecond}}
	b := []TenantStats{
		{Tenant: "x", Weight: 2, Dispatched: 1, Completed: 1,
			AvgDispatchWait: 2 * time.Millisecond, MaxDispatchWait: 30 * time.Millisecond},
		{Tenant: "y", Queued: 4},
	}
	m := MergeStats(a, b)
	if len(m) != 2 || m[0].Tenant != "x" || m[1].Tenant != "y" {
		t.Fatalf("merged = %+v", m)
	}
	x := m[0]
	if x.Dispatched != 4 || x.Completed != 4 || x.Weight != 2 {
		t.Fatalf("x counts = %+v", x)
	}
	if x.AvgDispatchWait != 8*time.Millisecond { // (3·10 + 1·2) / 4
		t.Fatalf("x avg = %v", x.AvgDispatchWait)
	}
	if x.P99DispatchWait != 20*time.Millisecond || x.MaxDispatchWait != 30*time.Millisecond {
		t.Fatalf("x tails = %+v", x)
	}
}

// TestConcurrentSubmitWithPool stresses the scheduler against a real
// engine pool under -race: many goroutines submitting across tenants
// while engines execute and the refill pump runs on completions.
func TestConcurrentSubmitWithPool(t *testing.T) {
	q := engine.NewQueue()
	pool := engine.NewPool(engine.Compute, q)
	pool.SetCount(4)
	defer pool.Shutdown()
	s := New(q, Config{WindowFn: func() int { return 2 * pool.Count() }})

	const tenants, perTenant = 4, 500
	var done sync.WaitGroup
	var executed atomic.Int64
	tenantNames := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		tenant := tenantNames[ti]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				done.Add(1)
				if err := s.Submit(tenant, Task{Do: func() {
					executed.Add(1)
					done.Done()
				}}); err != nil {
					t.Error(err)
					done.Done()
				}
			}
		}()
	}
	wg.Wait()
	done.Wait()
	if executed.Load() != tenants*perTenant {
		t.Fatalf("executed = %d", executed.Load())
	}
	// done fires inside Task.Do, but the scheduler releases a task's
	// slot only after Do returns: drain the pool (Shutdown waits for the
	// workers, and with them every completion hook) before reading the
	// gauges, or the last few tasks still count as Running.
	pool.Shutdown()
	var total uint64
	for _, st := range s.Stats() {
		if st.Queued != 0 || st.Running != 0 {
			t.Fatalf("leftover work: %+v", st)
		}
		total += st.Completed
	}
	if total != tenants*perTenant {
		t.Fatalf("completed total = %d", total)
	}
	s.Close()
}

// TestShare covers the weighted dispatch-share query behind sched-aware
// batch chunking. Tasks are parked (window 0 is impossible, so a
// 1-slot window with a blocked queue keeps backlogs resident).
func TestShare(t *testing.T) {
	q := engine.NewQueue()
	defer q.Close()
	s := New(q, Config{Window: 1, Weights: map[string]int{"heavy": 3}})
	defer s.Close()

	// Nobody active: everyone's share is 1, known or unknown tenants.
	if got := s.Share("alice"); got != 1 {
		t.Fatalf("idle Share(alice) = %v, want 1", got)
	}
	if got := s.Share(""); got != 1 {
		t.Fatalf("idle Share(default) = %v, want 1", got)
	}

	// Park work for two tenants (no engine drains the queue, and the
	// 1-slot window keeps all but one task in the tenant FIFOs).
	for i := 0; i < 3; i++ {
		if err := s.Submit("heavy", Task{Do: func() {}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Submit("light", Task{Do: func() {}}); err != nil {
			t.Fatal(err)
		}
	}
	// heavy(3) + light(1) active. A third, idle tenant of weight 1
	// counts itself: 1 / (1+3+1).
	if got := s.Share("alice"); got != 0.2 {
		t.Fatalf("Share(alice) = %v, want 0.2", got)
	}
	// Active tenants count themselves once, by weight.
	if got := s.Share("heavy"); got != 0.75 {
		t.Fatalf("Share(heavy) = %v, want 0.75", got)
	}
	if got := s.Share("light"); got != 0.25 {
		t.Fatalf("Share(light) = %v, want 0.25", got)
	}
	drain(q, 100)
}

// TestWeightHardening pins the clamp-to-≥1 contract of the whole weight
// path: seed weights, runtime updates, and the Weight/Share/Stats read
// side all treat non-positive weights as 1, and Share never degenerates
// for unknown or removed-from-active tenants.
func TestWeightHardening(t *testing.T) {
	q := engine.NewQueue()
	defer q.Close()
	s := New(q, Config{Window: 1, Weights: map[string]int{"zero": 0, "neg": -7, "ok": 3}})

	if w := s.Weight("zero"); w != 1 {
		t.Fatalf("seed weight 0 clamped to %d, want 1", w)
	}
	if w := s.Weight("neg"); w != 1 {
		t.Fatalf("seed weight -7 clamped to %d, want 1", w)
	}
	if w := s.Weight("ok"); w != 3 {
		t.Fatalf("weight ok = %d, want 3", w)
	}
	if w := s.Weight("never-seen"); w != 1 {
		t.Fatalf("unknown tenant weight = %d, want 1", w)
	}

	// Runtime updates clamp too.
	s.SetWeight("zero", 0)
	s.SetWeight("neg", -100)
	for _, tenant := range []string{"zero", "neg"} {
		if w := s.Weight(tenant); w != 1 {
			t.Fatalf("SetWeight(%s, <=0) stored %d, want 1", tenant, w)
		}
	}

	// Share stays in (0, 1] and finite in every degenerate shape: no
	// tenants active, tenant unknown, and empty tenant name.
	for _, tenant := range []string{"zero", "never-seen", ""} {
		sh := s.Share(tenant)
		if !(sh > 0 && sh <= 1) {
			t.Fatalf("Share(%q) = %v, want in (0, 1]", tenant, sh)
		}
	}

	// Stats reports the clamped weights, never the raw stored values.
	s.Submit("zero", Task{Do: func() {}})
	drain(q, 1)
	for _, st := range s.Stats() {
		if st.Weight < 1 {
			t.Fatalf("Stats weight for %s = %d, want >= 1", st.Tenant, st.Weight)
		}
	}
}

// TestZeroWeightTenantStillDispatches drives a backlogged tenant whose
// weight was pushed to the minimum alongside an active competitor: the
// clamp at credit time guarantees it earns ≥1 credit per round, so the
// refill loop can never spin without dispatching.
func TestZeroWeightTenantStillDispatches(t *testing.T) {
	q := engine.NewQueue()
	defer q.Close()
	s := New(q, Config{Window: 2})
	s.SetWeight("small", -1) // clamped to 1

	var small, big atomic.Int64
	for i := 0; i < 10; i++ {
		s.Submit("small", Task{Do: func() { small.Add(1) }})
		s.Submit("big", Task{Do: func() { big.Add(1) }})
	}
	if got := drain(q, 100); got != 20 {
		t.Fatalf("executed %d, want 20", got)
	}
	if small.Load() != 10 || big.Load() != 10 {
		t.Fatalf("small=%d big=%d, want 10/10", small.Load(), big.Load())
	}
}

// TestShareAfterTenantsDrain: a tenant whose competitors have all gone
// idle (removed from the active set) regains share 1 exactly.
func TestShareAfterTenantsDrain(t *testing.T) {
	q := engine.NewQueue()
	defer q.Close()
	s := New(q, Config{Window: 1, Weights: map[string]int{"a": 2}})

	s.Submit("a", Task{Do: func() {}})
	s.Submit("b", Task{Do: func() {}})
	// Both active: a has weight 2 of total 3.
	if sh := s.Share("a"); sh < 0.6 || sh > 0.7 {
		t.Fatalf("Share(a) with b active = %v, want 2/3", sh)
	}
	drain(q, 2)
	// b drained and idle: a is alone again.
	if sh := s.Share("a"); sh != 1 {
		t.Fatalf("Share(a) after drain = %v, want 1", sh)
	}
}

// TestDoShardedDispatch checks that sharded tasks flow through DRR
// dispatch with the window accounting intact: the wrapper must hand the
// engine's shard index to the closure and still free the window slot on
// completion so the backlog keeps draining.
func TestDoShardedDispatch(t *testing.T) {
	q := engine.NewQueue()
	defer q.Close()
	s := New(q, Config{Window: 1})

	var shards []int
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		if err := s.Submit("t", Task{DoSharded: func(shard int) {
			mu.Lock()
			shards = append(shards, shard)
			mu.Unlock()
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain executing each task with a distinct engine shard ID. With a
	// window of 1, each completion must re-pump the next dispatch.
	ran := 0
	for ran < 8 {
		tk, ok := q.TryPop()
		if !ok {
			break
		}
		if tk.DoSharded == nil {
			t.Fatalf("dispatched task %d lost its DoSharded wrapper", ran)
		}
		tk.DoSharded(ran)
		ran++
	}
	if ran != 8 {
		t.Fatalf("executed %d tasks, want 8 (window slot not freed?)", ran)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, sh := range shards {
		if sh != i {
			t.Fatalf("task %d saw shard %d, want %d (%v)", i, sh, i, shards)
		}
	}
}

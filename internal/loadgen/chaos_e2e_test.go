// End-to-end chaos test: a two-worker cluster under a seeded
// fault-injection plan (internal/faultinject). One worker's transport
// injects deterministic failures; the test asserts the robustness
// machinery end to end — the circuit breaker trips and is visible in
// cluster stats, traffic reroutes onto the healthy worker inside the
// request deadline, no invocation executes twice, and the deadline
// counters (TimedOut, Expired, Shed) come out exact. Everything is
// driven by fixed seeds and fault budgets, so the counters are
// asserted with ==, not >=.
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/faultinject"
	"dandelion/internal/frontend"
)

// newCountingServer is newEchoServer with an execution counter: the
// compute function ticks once per invocation, so duplicate executions
// (a retry that re-ran work instead of hitting the dedup table) are
// directly observable.
func newCountingServer(t *testing.T) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	var count atomic.Uint64
	p, err := dandelion.New(dandelion.Options{ComputeEngines: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Upper",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			count.Add(1)
			out := dandelion.Set{Name: "Out"}
			for _, it := range in[0].Items {
				out.Items = append(out.Items, dandelion.Item{
					Name: it.Name, Data: []byte(strings.ToUpper(string(it.Data))),
				})
			}
			return []dandelion.Set{out}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(frontend.New(p))
	t.Cleanup(srv.Close)
	return srv, &count
}

// chaosCluster wires a coordinator frontend over two counting workers,
// the second behind the given fault plan, with a breaker configuration
// small enough to reason about exactly.
func chaosCluster(t *testing.T, plan *faultinject.Plan, cooldown time.Duration) (coord *httptest.Server, mgr *cluster.Manager, count1, count2 *atomic.Uint64) {
	t.Helper()
	w1, c1 := newCountingServer(t)
	w2, c2 := newCountingServer(t)

	mgr = cluster.NewManager()
	if err := mgr.Register("w1", cluster.NewRemoteNode(w1.URL, cluster.RemoteOptions{})); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("w2", cluster.NewRemoteNode(w2.URL, cluster.RemoteOptions{
		Client:           &http.Client{Transport: plan.RoundTripper(nil), Timeout: 5 * time.Second},
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
	})); err != nil {
		t.Fatal(err)
	}

	cp, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Shutdown)
	coord = httptest.NewServer(frontend.NewWithConfig(cp, frontend.Config{
		Cluster: mgr,
	}))
	t.Cleanup(coord.Close)
	return coord, mgr, c1, c2
}

func chaosRun(t *testing.T, coord *httptest.Server, requests, batch int) Report {
	t.Helper()
	rep, err := Run(Config{
		BaseURL:     coord.URL,
		Composition: "U",
		InputSet:    "In",
		OutputSet:   "Result",
		Tenant:      "chaos",
		Clients:     1,
		Requests:    requests,
		BatchSize:   batch,
		Deadline:    5 * time.Second,
		Validate: func(client, seq, i int, body []byte) error {
			if string(body) != string(wantPayload(client, seq, i)) {
				return fmt.Errorf("got %q", body)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaosE2E/BreakerTripsAndReroutes: a worker whose batch transport
// fails every request trips its breaker after exactly threshold
// consecutive failures, one per chunk sent to it; each failed chunk
// reroutes onto the survivor, every later batch and single invoke is
// routed around the open breaker, all requests succeed inside their
// deadline, and nothing executes twice.
func TestChaosE2E(t *testing.T) {
	t.Run("BreakerTripsAndReroutes", func(t *testing.T) {
		// failn with a budget far beyond what the breaker lets through:
		// w2's batch route fails until the breaker gives up on it. The
		// cooldown is an hour so the breaker stays open for the whole
		// test and the fast-fail arithmetic below is exact.
		plan := faultinject.New(7, faultinject.Fault{
			Route: "/invoke-batch", Kind: faultinject.FaultFailN, N: 64, Code: 502,
		})
		coord, mgr, count1, count2 := chaosCluster(t, plan, time.Hour)

		// 4 sequential batches of 4. Batches 1-3 each split into one
		// chunk of 2 per worker; each w2 chunk is one transport attempt
		// that fails and reroutes onto w1, and the third trips the
		// breaker. Batch 4 skips the open breaker and goes to w1 whole.
		rep := chaosRun(t, coord, 4, 4)
		if rep.Errors != 0 {
			t.Fatalf("errors under faults = %d [%s]: %s", rep.Errors, rep.Classes, rep)
		}

		// Single invokes after the trip take the same route: around the
		// open breaker, onto w1, without even a fast-fail.
		rep2 := chaosRun(t, coord, 4, 1)
		if rep2.Errors != 0 {
			t.Fatalf("single-invoke errors = %d: %s", rep2.Errors, rep2)
		}

		// Exactly-once: every sent invocation executed once, none on the
		// faulted worker (its transport never let a batch through).
		sent := uint64(rep.Invocations + rep2.Invocations)
		if got := count1.Load() + count2.Load(); got != sent {
			t.Fatalf("workers executed %d invocations, %d sent (duplicates or losses)", got, sent)
		}
		if count2.Load() != 0 {
			t.Fatalf("faulted worker executed %d invocations, want 0", count2.Load())
		}

		// The exact breaker arithmetic. AggregateStats snapshots Routing
		// before polling worker stats, so these counters are unpolluted
		// by the aggregation's own (breaker-blocked) stats calls.
		cs := mgr.AggregateStats()
		if cs.BreakerTrips != 1 {
			t.Fatalf("BreakerTrips = %d, want exactly 1", cs.BreakerTrips)
		}
		if cs.BreakerOpen != 0 { // nothing was routed to the open breaker
			t.Fatalf("BreakerOpen fast-fails = %d, want 0", cs.BreakerOpen)
		}
		var w2stats cluster.WorkerStats
		for _, ws := range cs.Routing {
			if ws.Name == "w2" {
				w2stats = ws
			}
		}
		if w2stats.Breaker != cluster.BreakerOpen {
			t.Fatalf("w2 breaker state = %q, want open", w2stats.Breaker)
		}
		if w2stats.Rerouted != 3 {
			t.Fatalf("w2 rerouted chunks = %d, want 3", w2stats.Rerouted)
		}
		// After the trip no chunk reached w2: it was handed only the
		// chunks of 2 of batches 1-3.
		if w2stats.Total != 6 {
			t.Fatalf("w2 was routed %d invocations, want 6", w2stats.Total)
		}
		// The open breaker also refuses the stats fan-out, at once: w2
		// is named in StatsErrors instead of silently vanishing from the
		// aggregate.
		if len(cs.StatsErrors) != 1 || cs.StatsErrors[0] != "w2" {
			t.Fatalf("StatsErrors = %v, want [w2]", cs.StatsErrors)
		}

		// The same gauges travel the HTTP stats surface.
		resp, err := http.Get(coord.URL + "/stats/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var wireCS cluster.ClusterStats
		if err := json.NewDecoder(resp.Body).Decode(&wireCS); err != nil {
			t.Fatal(err)
		}
		if wireCS.BreakerTrips != 1 || len(wireCS.Routing) != 2 || wireCS.Routing[1].Rerouted != 3 {
			t.Fatalf("/stats/cluster BreakerTrips=%d Routing=%+v, want 1 and w2 Rerouted 3", wireCS.BreakerTrips, wireCS.Routing)
		}
	})

	// BreakerRecovery: the full state machine — trip open on exactly
	// threshold failures, report half-open after the cooldown, admit one
	// probe, and close on its success, after which the recovered worker
	// serves traffic again.
	t.Run("BreakerRecovery", func(t *testing.T) {
		// failn budget == breaker threshold: the worker "recovers" the
		// moment the breaker trips, so the half-open probe succeeds.
		plan := faultinject.New(7, faultinject.Fault{
			Route: "/invoke-batch", Kind: faultinject.FaultFailN, N: 3, Code: 502,
		})
		cooldown := 50 * time.Millisecond
		coord, mgr, count1, count2 := chaosCluster(t, plan, cooldown)

		rep1 := chaosRun(t, coord, 3, 4) // w2's third failed chunk trips its breaker; all reroute
		if rep1.Errors != 0 {
			t.Fatalf("errors while tripping = %d: %s", rep1.Errors, rep1)
		}
		if st := workerBreaker(t, mgr, "w2"); st != cluster.BreakerOpen {
			t.Fatalf("after trip: breaker = %q, want open", st)
		}

		time.Sleep(cooldown + 30*time.Millisecond)
		if st := workerBreaker(t, mgr, "w2"); st != cluster.BreakerHalfOpen {
			t.Fatalf("after cooldown: breaker = %q, want half-open", st)
		}

		rep2 := chaosRun(t, coord, 1, 4) // the probe chunk succeeds
		if rep2.Errors != 0 {
			t.Fatalf("errors during recovery = %d: %s", rep2.Errors, rep2)
		}
		if st := workerBreaker(t, mgr, "w2"); st != cluster.BreakerClosed {
			t.Fatalf("after successful probe: breaker = %q, want closed", st)
		}
		if got := count2.Load(); got != 2 {
			t.Fatalf("recovered worker executed %d invocations, want its 2-request chunk", got)
		}
		if got := count1.Load() + count2.Load(); got != uint64(rep1.Invocations+rep2.Invocations) {
			t.Fatalf("workers executed %d invocations, %d sent", got, rep1.Invocations+rep2.Invocations)
		}
		trips := uint64(0)
		for _, ws := range mgr.Stats() {
			trips += ws.BreakerTrips
		}
		if trips != 1 {
			t.Fatalf("BreakerTrips = %d, want 1 (recovery must not re-trip)", trips)
		}
	})

	// DeadlineCounters: the single-node deadline machinery with exact
	// counters. A saturated tenant backlog sheds a hopeless request
	// (503 + Retry-After, Shed=1); deadlined requests parked behind a
	// blocker time out (504, TimedOut) and their queue entries are
	// dropped expired at dispatch, never executed (Expired).
	t.Run("DeadlineCounters", func(t *testing.T) {
		// 1 engine, 150ms service time, dispatch window 2x1: the third
		// outstanding request of a tenant parks in the sched backlog.
		p, srv := newSleepServer(t, 1, 150*time.Millisecond)

		post := func(tenant string, deadlineMs int) *http.Response {
			t.Helper()
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/invoke/W?input=In", strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Tenant", tenant)
			if deadlineMs > 0 {
				req.Header.Set(frontend.DeadlineHeader, fmt.Sprint(deadlineMs))
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}

		// Phase 1 — shed. Three no-deadline requests saturate the tenant:
		// two dispatch (window 2), the third parks and ages. A probe whose
		// whole budget is smaller than that age is refused up front.
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := post("shed-t", 0)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		time.Sleep(120 * time.Millisecond) // backlog head is now ~100ms old
		resp := post("shed-t", 30)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("shed probe: status = %d (%s), want 503", resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("shed probe: Retry-After = %q, want \"1\"", ra)
		}
		wg.Wait()

		// Phase 2 — timeout + expiry. A fresh blocker occupies the
		// engine; three 60ms-deadline requests arrive behind it. One
		// takes the tenant's remaining window slot (and times out
		// waiting), two park and are dropped expired at dispatch.
		var blocker sync.WaitGroup
		blocker.Add(1)
		go func() {
			defer blocker.Done()
			resp := post("late", 0)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		time.Sleep(30 * time.Millisecond)
		codes := make([]int, 3)
		var lateWG sync.WaitGroup
		for i := 0; i < 3; i++ {
			i := i
			lateWG.Add(1)
			go func() {
				defer lateWG.Done()
				resp := post("late", 60)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}()
		}
		lateWG.Wait()
		blocker.Wait()
		for i, c := range codes {
			if c != http.StatusGatewayTimeout {
				t.Fatalf("late request %d: status = %d, want 504 (all: %v)", i, c, codes)
			}
		}

		// Let the scheduler drain the expired entries (they are dropped
		// when the blocker's completion frees the window).
		waitFor(t, "expired entries dropped", func() bool { return p.Stats().Expired == 2 })

		st := p.Stats()
		if st.Shed != 1 {
			t.Fatalf("Shed = %d, want exactly 1", st.Shed)
		}
		if st.TimedOut != 3 {
			t.Fatalf("TimedOut = %d, want exactly 3", st.TimedOut)
		}
		if st.Expired != 2 {
			t.Fatalf("Expired = %d, want exactly 2", st.Expired)
		}
		for _, ts := range st.Tenants {
			if ts.Tenant == "late" && ts.Expired != 2 {
				t.Fatalf("tenant late Expired = %d, want 2: %+v", ts.Expired, ts)
			}
		}

		// The counters travel GET /stats.
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var wireStats struct{ TimedOut, Expired, Shed uint64 }
		if err := json.NewDecoder(resp.Body).Decode(&wireStats); err != nil {
			t.Fatal(err)
		}
		if wireStats.TimedOut != 3 || wireStats.Expired != 2 || wireStats.Shed != 1 {
			t.Fatalf("GET /stats = %+v, want TimedOut=3 Expired=2 Shed=1", wireStats)
		}
	})

	// LoadgenClasses: the closed-loop harness classifies deadline-class
	// failures (504 timeouts, 503 sheds) instead of lumping them with
	// application errors, and the classes always sum to Errors.
	t.Run("LoadgenClasses", func(t *testing.T) {
		_, srv := newSleepServer(t, 1, 100*time.Millisecond)

		// Saturate the tenant: five no-deadline requests pile up a
		// backlog that outlives the probe run below, so a 30ms budget
		// is hopeless — shed at admission or expired in the queue.
		var bg sync.WaitGroup
		for i := 0; i < 5; i++ {
			bg.Add(1)
			go func() {
				defer bg.Done()
				req, err := http.NewRequest(http.MethodPost, srv.URL+"/invoke/W?input=In", strings.NewReader("x"))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("X-Tenant", "doomed")
				resp, err := srv.Client().Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		defer bg.Wait()
		time.Sleep(120 * time.Millisecond) // let the backlog age past any 30ms budget

		rep, err := Run(Config{
			BaseURL:     srv.URL,
			Client:      srv.Client(),
			Composition: "W",
			InputSet:    "In",
			OutputSet:   "Result",
			Tenant:      "doomed",
			Clients:     3,
			Requests:    2,
			Deadline:    30 * time.Millisecond, // < 100ms service: hopeless
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != rep.Invocations {
			t.Fatalf("errors = %d of %d, want every request to miss its deadline [%s]", rep.Errors, rep.Invocations, rep.Classes)
		}
		c := rep.Classes
		if got := c.Timeouts + c.Shed + c.Transport + c.AppErrors; got != rep.Errors {
			t.Fatalf("classes sum %d != errors %d [%s]", got, rep.Errors, c)
		}
		if c.Timeouts+c.Shed != rep.Errors {
			t.Fatalf("deadline-class failures = %d of %d, want all [%s]", c.Timeouts+c.Shed, rep.Errors, c)
		}
		if c.Shed == 0 {
			t.Fatalf("no sheds classified against an aged backlog [%s]", c)
		}
	})
}

func workerBreaker(t *testing.T, mgr *cluster.Manager, name string) string {
	t.Helper()
	for _, ws := range mgr.Stats() {
		if ws.Name == name {
			return ws.Breaker
		}
	}
	t.Fatalf("worker %s missing from stats", name)
	return ""
}

// End-to-end remote-cluster test: two worker processes (separate
// platforms behind real HTTP frontends) join a coordinator over the
// wire, loadgen batch traffic spreads across both, and killing one
// worker reroutes its in-flight chunks onto the survivor and evicts it
// from membership within the missed-heartbeat horizon.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/frontend"
)

func TestClusterE2E(t *testing.T) {
	// Coordinator: a platform of its own (serves no compositions), a
	// round-robin manager, and a heartbeat tracker with a horizon long
	// enough (interval × misses = 200ms) that the killed worker is still
	// in membership while the reroute phase runs.
	cp, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Shutdown)
	mgr := cluster.NewManager()
	tr := cluster.NewTracker(mgr, 25*time.Millisecond, 8, nil)
	tr.Start()
	t.Cleanup(tr.Stop)
	coord := httptest.NewServer(frontend.NewWithConfig(cp, frontend.Config{
		Tracker: tr,
	}))
	t.Cleanup(coord.Close)

	// Two workers, each a full platform + frontend with the uppercase
	// echo composition, each heartbeating the coordinator.
	p1, w1 := newEchoServer(t)
	p2, w2 := newEchoServer(t)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	for _, w := range []struct {
		name string
		url  string
		ctx  context.Context
	}{
		{"w1", w1.URL, context.Background()},
		{"w2", w2.URL, ctx2},
	} {
		hb := &cluster.Heartbeater{
			Coordinator: coord.URL,
			Name:        w.name,
			SelfURL:     w.url,
			Interval:    25 * time.Millisecond,
		}
		go hb.Run(w.ctx)
	}
	waitFor(t, "both workers joined", func() bool { return len(mgr.Workers()) == 2 })

	validate := func(client, seq, i int, body []byte) error {
		if string(body) != string(wantPayload(client, seq, i)) {
			return fmt.Errorf("got %q", body)
		}
		return nil
	}
	run := func(phase string, clients, requests, batch int) Report {
		t.Helper()
		rep, err := Run(Config{
			BaseURL:     coord.URL,
			Composition: "U",
			InputSet:    "In",
			OutputSet:   "Result",
			Tenant:      "alice",
			Clients:     clients,
			Requests:    requests,
			BatchSize:   batch,
			Validate:    validate,
		})
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if rep.Errors != 0 {
			t.Fatalf("%s: %d errors: %s", phase, rep.Errors, rep)
		}
		return rep
	}

	// Phase 1: batch traffic through the coordinator lands on both
	// workers. Batches of 4 split into multi-request chunks of 2.
	rep1 := run("phase 1", 2, 6, 4)
	if p1.Stats().Invocations == 0 || p2.Stats().Invocations == 0 {
		t.Fatalf("traffic not spread: w1=%d w2=%d invocations",
			p1.Stats().Invocations, p2.Stats().Invocations)
	}

	// Phase 2: kill w2 (server down, heartbeats stop) and keep sending.
	// Chunks dispatched to the dead worker fail wholesale and must be
	// rerouted onto the survivor — no request lost.
	w2Final := p2.Stats().Invocations
	w2.Close()
	cancel2()
	rep2 := run("phase 2 (reroute)", 4, 6, 4)
	rerouted := uint64(0)
	for _, ws := range mgr.Stats() {
		if ws.Name == "w2" {
			rerouted = ws.Rerouted
		}
	}
	if rerouted == 0 {
		t.Fatalf("no chunks rerouted off the dead worker: %+v", mgr.Stats())
	}
	if got := p2.Stats().Invocations; got != w2Final {
		t.Fatalf("dead worker executed %d more invocations after close", got-w2Final)
	}

	// The tracker evicts w2 within the missed-beat horizon.
	waitFor(t, "w2 evicted", func() bool { return tr.AggregateStats().Evictions >= 1 })
	waitFor(t, "w2 out of membership", func() bool {
		ws := mgr.Workers()
		return len(ws) == 1 && ws[0] == "w1"
	})

	// Phase 3: a cluster of one keeps serving cleanly.
	rep3 := run("phase 3 (survivor)", 2, 4, 4)

	// Every invocation executed exactly once: nothing lost (errors were
	// zero throughout), nothing duplicated by the reroute retry.
	sent := uint64(rep1.Invocations + rep2.Invocations + rep3.Invocations)
	if got := p1.Stats().Invocations + p2.Stats().Invocations; got != sent {
		t.Fatalf("workers executed %d invocations, %d were sent", got, sent)
	}

	// GET /stats/cluster merges the survivor's gauges and reports the
	// eviction rather than silently dropping the worker.
	resp, err := http.Get(coord.URL + "/stats/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs cluster.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if cs.Workers != 1 || cs.Reporting != 1 {
		t.Fatalf("Workers=%d Reporting=%d, want 1/1", cs.Workers, cs.Reporting)
	}
	if cs.Invocations != p1.Stats().Invocations {
		t.Fatalf("merged Invocations=%d, survivor has %d", cs.Invocations, p1.Stats().Invocations)
	}
	if cs.Evictions < 1 || len(cs.Evicted) != 1 || cs.Evicted[0].Name != "w2" {
		t.Fatalf("eviction not reported: Evictions=%d Evicted=%+v", cs.Evictions, cs.Evicted)
	}
	foundAlice := false
	for _, ts := range cs.Tenants {
		if ts.Tenant == "alice" && ts.Completed > 0 {
			foundAlice = true
		}
	}
	if !foundAlice {
		t.Fatalf("tenant alice missing from merged stats: %+v", cs.Tenants)
	}
}

// TestRunSpreadsAcrossBaseURLs: the multi-target rotation reaches every
// frontend in the list without a coordinator in between.
func TestRunSpreadsAcrossBaseURLs(t *testing.T) {
	p1, w1 := newEchoServer(t)
	p2, w2 := newEchoServer(t)
	rep, err := Run(Config{
		BaseURLs:    []string{w1.URL, w2.URL},
		Composition: "U",
		InputSet:    "In",
		OutputSet:   "Result",
		Clients:     2,
		Requests:    4,
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
	if rep.Errors != 0 {
		t.Fatalf("errors = %d: %s", rep.Errors, rep)
	}
	if p1.Stats().Invocations == 0 || p2.Stats().Invocations == 0 {
		t.Fatalf("rotation skipped a target: w1=%d w2=%d",
			p1.Stats().Invocations, p2.Stats().Invocations)
	}
	if got := p1.Stats().Invocations + p2.Stats().Invocations; got != uint64(rep.Invocations) {
		t.Fatalf("targets saw %d invocations, %d sent", got, rep.Invocations)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

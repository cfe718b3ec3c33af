package loadgen

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/frontend"
)

// newEchoServer boots a real platform behind the HTTP frontend with an
// upper-casing composition registered.
func newEchoServer(t *testing.T) (*dandelion.Platform, *httptest.Server) {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{ComputeEngines: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Upper",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
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
	return p, srv
}

func wantPayload(client, seq, i int) []byte {
	return []byte(strings.ToUpper(fmt.Sprintf("c%d-r%d-i%d", client, seq, i)))
}

func TestRunSingleMode(t *testing.T) {
	p, srv := newEchoServer(t)
	rep, err := Run(Config{
		BaseURL:     srv.URL,
		Client:      srv.Client(),
		Composition: "U",
		InputSet:    "In",
		OutputSet:   "Result",
		Clients:     4,
		Requests:    10,
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
	if rep.Requests != 40 || rep.Invocations != 40 {
		t.Fatalf("requests/invocations = %d/%d, want 40/40", rep.Requests, rep.Invocations)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d: %s", rep.Errors, rep)
	}
	if st := p.Stats(); st.Invocations != 40 {
		t.Fatalf("platform saw %d invocations, want 40", st.Invocations)
	}
}

func TestRunBatchMode(t *testing.T) {
	p, srv := newEchoServer(t)
	rep, err := Run(Config{
		BaseURL:     srv.URL,
		Client:      srv.Client(),
		Composition: "U",
		InputSet:    "In",
		OutputSet:   "Result",
		Clients:     3,
		Requests:    5,
		BatchSize:   8,
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
	if rep.Requests != 15 || rep.Invocations != 120 {
		t.Fatalf("requests/invocations = %d/%d, want 15/120", rep.Requests, rep.Invocations)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d: %s", rep.Errors, rep)
	}
	st := p.Stats()
	if st.Invocations != 120 {
		t.Fatalf("platform saw %d invocations, want 120", st.Invocations)
	}
	if st.Batches != 15 {
		t.Fatalf("platform saw %d batches, want 15", st.Batches)
	}
}

func TestRunCountsErrors(t *testing.T) {
	_, srv := newEchoServer(t)
	rep, err := Run(Config{
		BaseURL:     srv.URL,
		Client:      srv.Client(),
		Composition: "NoSuchComposition",
		InputSet:    "In",
		Clients:     2,
		Requests:    3,
		BatchSize:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != rep.Invocations {
		t.Fatalf("errors = %d, want all %d invocations", rep.Errors, rep.Invocations)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// newSleepServer boots a platform whose composition sleeps for a fixed
// service time per item — compute-engine occupancy without burning the
// CPU, so timing stays meaningful on small CI machines.
func newSleepServer(t *testing.T, engines int, service time.Duration) (*dandelion.Platform, *httptest.Server) {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{ComputeEngines: engines})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Work",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			time.Sleep(service)
			return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition W(In) => Result {
    Work(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(frontend.New(p))
	t.Cleanup(srv.Close)
	return p, srv
}

// interactiveP99 measures the interactive tenant's p99 dispatch wait on
// a fresh server, optionally under a concurrent flooding batch tenant.
func interactiveP99(t *testing.T, withFlood bool) time.Duration {
	t.Helper()
	p, srv := newSleepServer(t, 2, time.Millisecond)

	stop := make(chan struct{})
	var floodWG sync.WaitGroup
	if withFlood {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Sustained giant batches from the flood tenant.
				Run(Config{
					BaseURL: srv.URL, Client: srv.Client(),
					Composition: "W", InputSet: "In", OutputSet: "Result",
					Tenant: "flood", Clients: 2, Requests: 3, BatchSize: 32,
				})
			}
		}()
		// Let the flood establish a backlog before measuring.
		time.Sleep(50 * time.Millisecond)
	}

	rep, err := Run(Config{
		BaseURL: srv.URL, Client: srv.Client(),
		Composition: "W", InputSet: "In", OutputSet: "Result",
		Tenant: "interactive", Requests: 50,
	})
	if withFlood {
		close(stop)
		floodWG.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("interactive errors: %s", rep)
	}
	for _, ts := range p.Stats().Tenants {
		if ts.Tenant == "interactive" {
			if ts.Completed == 0 {
				t.Fatalf("interactive completed nothing: %+v", ts)
			}
			return ts.P99DispatchWait
		}
	}
	t.Fatalf("interactive tenant missing from stats: %+v", p.Stats().Tenants)
	return 0
}

// TestTwoTenantFairness is the acceptance criterion: with equal DRR
// weights, a tenant flooding giant batches cannot push the interactive
// tenant's p99 dispatch wait beyond ~2x its solo baseline (plus a fixed
// allowance for the residual service time of in-flight batch chunks —
// DRR preempts dispatch order, not running work).
func TestTwoTenantFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive fairness run")
	}
	solo := interactiveP99(t, false)
	contended := interactiveP99(t, true)
	t.Logf("interactive p99 dispatch wait: solo=%v contended=%v", solo, contended)

	bound := 2*solo + 100*time.Millisecond
	if contended > bound {
		t.Fatalf("flooding tenant starved interactive dispatch: solo p99=%v, contended p99=%v > bound %v",
			solo, contended, bound)
	}
}

// TestStepLoadGrowsComputePool is the elasticity acceptance run: a
// 1-engine worker with -autoscale semantics takes a low step (one
// closed-loop client), then an overloading step (eight); the control
// loop's budget rule must grow the compute pool (EngineResizes > 0) to
// absorb it. The slow function holds an engine for 5 ms per request, so
// eight clients keep seven requests waiting on one engine — a dispatch
// wait far above the loop's 5 ms pressure threshold — whichever machine
// runs the test.
func TestStepLoadGrowsComputePool(t *testing.T) {
	p, err := dandelion.New(dandelion.Options{
		ComputeEngines: 1,
		Autoscale:      true,
		AutoscaleMax:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Slow",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			time.Sleep(5 * time.Millisecond)
			return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition S(In) => Result {
    Slow(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(frontend.New(p))
	t.Cleanup(srv.Close)

	for i, step := range []struct{ clients, requests int }{
		{1, 10}, // warm-up, within one engine's capacity
		{8, 25}, // ~1 s of one engine's work, offered eight at a time
	} {
		r, err := Run(Config{
			BaseURL:     srv.URL,
			Client:      srv.Client(),
			Composition: "S",
			InputSet:    "In",
			Tenant:      "step-tenant",
			Clients:     step.clients,
			Requests:    step.requests,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Errors != 0 {
			t.Fatalf("step %d errors: %s", i, r)
		}
	}

	st := p.Stats()
	if st.EngineResizes == 0 {
		t.Fatalf("EngineResizes = 0 after overload step; stats = %+v", st)
	}
	if !st.AutoscaleOn {
		t.Fatal("AutoscaleOn not reported")
	}
	if st.ComputeEngines < 2 {
		t.Fatalf("compute engines = %d, want >= 2 after growth", st.ComputeEngines)
	}
	// The tenant's traffic is visible in the scheduling gauges.
	var seen bool
	for _, ts := range st.Tenants {
		if ts.Tenant == "step-tenant" && ts.Completed > 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("step-tenant missing from tenant gauges: %+v", st.Tenants)
	}
}

// TestRunBatchModeBinary drives the closed loop over the binary wire
// framing: results validate exactly as in JSON mode, bytes sent are
// counted, and the platform sees the same invocation count.
func TestRunBatchModeBinary(t *testing.T) {
	p, srv := newEchoServer(t)
	rep, err := Run(Config{
		BaseURL:     srv.URL,
		Client:      srv.Client(),
		Composition: "U",
		InputSet:    "In",
		OutputSet:   "Result",
		Clients:     3,
		Requests:    5,
		BatchSize:   8,
		Binary:      true,
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
	if rep.Requests != 15 || rep.Invocations != 120 {
		t.Fatalf("requests/invocations = %d/%d, want 15/120", rep.Requests, rep.Invocations)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d: %s", rep.Errors, rep)
	}
	if rep.BytesOut <= 0 {
		t.Fatalf("byte accounting missing: out=%d", rep.BytesOut)
	}
	if st := p.Stats(); st.Invocations != 120 {
		t.Fatalf("platform saw %d invocations, want 120", st.Invocations)
	}
}

func TestRunReportsTenantBreakdown(t *testing.T) {
	_, srv := newEchoServer(t)
	rep, err := Run(Config{
		BaseURL:     srv.URL,
		Client:      srv.Client(),
		Composition: "U",
		InputSet:    "In",
		Tenant:      "alice",
		Clients:     2,
		Requests:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := rep.Tenants["alice"]
	if !ok {
		t.Fatalf("tenant breakdown missing: %v", rep.Tenants)
	}
	if tr.Requests != rep.Requests || tr.Invocations != rep.Invocations {
		t.Fatalf("tenant slice %+v disagrees with report %s", tr, rep)
	}
}

func TestRunMixedSplitsTenants(t *testing.T) {
	_, srv := newEchoServer(t)
	big := func(client, seq, i int) []byte {
		return append([]byte("big-"), make([]byte, 32<<10)...)
	}
	rep, err := RunMixed(
		Config{
			BaseURL: srv.URL, Client: srv.Client(), Composition: "U", InputSet: "In",
			Tenant: "interactive", Clients: 2, Requests: 6,
		},
		Config{
			BaseURL: srv.URL, Client: srv.Client(), Composition: "U", InputSet: "In",
			Tenant: "analytics", Clients: 2, Requests: 6, Payload: big,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 24 || rep.Invocations != 24 {
		t.Fatalf("combined requests/invocations = %d/%d, want 24/24", rep.Requests, rep.Invocations)
	}
	ti, ok := rep.Tenants["interactive"]
	if !ok {
		t.Fatalf("interactive tenant missing: %v", rep.Tenants)
	}
	ta, ok := rep.Tenants["analytics"]
	if !ok {
		t.Fatalf("analytics tenant missing: %v", rep.Tenants)
	}
	if ti.Requests != 12 || ta.Requests != 12 {
		t.Fatalf("per-tenant requests = %d/%d, want 12/12", ti.Requests, ta.Requests)
	}
	// The analytics stream ships 32 KiB payloads; per-tenant byte
	// accounting must keep the streams apart.
	if ta.BytesOut <= ti.BytesOut {
		t.Fatalf("analytics bytesOut %d not above interactive %d", ta.BytesOut, ti.BytesOut)
	}
	if got := ti.BytesOut + ta.BytesOut; got != rep.BytesOut {
		t.Fatalf("tenant bytesOut sum %d != combined %d", got, rep.BytesOut)
	}
	if rep.String() == "" || len(rep.Tenants) != 2 {
		t.Fatalf("report: %s", rep)
	}
}

func TestRunMixedMergesSameTenantStreams(t *testing.T) {
	_, srv := newEchoServer(t)
	cfg := Config{
		BaseURL: srv.URL, Client: srv.Client(), Composition: "U", InputSet: "In",
		Tenant: "alice", Clients: 1, Requests: 4,
	}
	rep, err := RunMixed(cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 1 {
		t.Fatalf("tenants = %v, want one merged entry", rep.Tenants)
	}
	if tr := rep.Tenants["alice"]; tr.Requests != 8 {
		t.Fatalf("merged tenant requests = %d, want 8", tr.Requests)
	}
}

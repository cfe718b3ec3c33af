// Remote-transport tests: a real worker frontend behind httptest, a
// RemoteNode dialing it, and the Heartbeater/Tracker membership loop.
// These live in an external test package because the frontend imports
// the cluster package.
package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/dvm"
	"dandelion/internal/frontend"
	"dandelion/internal/wire"
)

// newWorker spins one worker node with its frontend and the echo
// composition E registered.
func newWorker(t *testing.T, adminToken string) (*dandelion.Platform, *httptest.Server) {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Echo", Binary: dvm.EchoProgram().Encode(), OutputSets: []string{"Copy"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(frontend.NewWithConfig(p, frontend.Config{AdminToken: adminToken}))
	t.Cleanup(srv.Close)
	return p, srv
}

func TestRemoteNodeInvoke(t *testing.T) {
	p, srv := newWorker(t, "")
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})

	out, err := rn.Invoke(context.Background(), dandelion.Request{Composition: "E", Tenant: "alice", Inputs: map[string][]dandelion.Item{
		"In": {{Name: "x", Data: []byte("over the wire")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if items := out["Result"]; len(items) != 1 || string(items[0].Data) != "over the wire" {
		t.Fatalf("outputs = %v", out)
	}

	// The tenant identity crossed the wire: the worker dispatched the
	// invocation under alice. (Dispatched, not Completed: the scheduler
	// releases a task's slot only after its body returns, so Completed
	// can still lag the response by one.)
	found := false
	for _, ts := range p.Stats().Tenants {
		if ts.Tenant == "alice" && ts.Dispatched > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tenant alice not accounted on the worker: %+v", p.Stats().Tenants)
	}

	if _, err := rn.Invoke(context.Background(), dandelion.Request{Composition: "Ghost"}); err == nil {
		t.Fatal("unknown composition must error")
	} else if errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("application rejection mis-tagged as transport error: %v", err)
	}
}

func TestRemoteNodeInvokeBatch(t *testing.T) {
	_, srv := newWorker(t, "")
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})

	reqs := make([]dandelion.Request, 5)
	for i := 0; i < 4; i++ {
		reqs[i] = dandelion.Request{
			Composition: "E", Tenant: "bob",
			Inputs: map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte{byte('a' + i)}}}},
		}
	}
	reqs[4] = dandelion.Request{Composition: "Ghost", Tenant: "bob"}

	res := rn.InvokeBatch(context.Background(), reqs)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 0; i < 4; i++ {
		if res[i].Err != nil {
			t.Fatalf("request %d: %v", i, res[i].Err)
		}
		if got := string(res[i].Outputs["Result"][0].Data); got != string([]byte{byte('a' + i)}) {
			t.Fatalf("request %d echoed %q", i, got)
		}
	}
	if res[4].Err == nil {
		t.Fatal("unknown composition in batch must error")
	}
}

func TestRemoteNodeTransportFailure(t *testing.T) {
	_, srv := newWorker(t, "")
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})
	srv.Close()

	res := rn.InvokeBatch(context.Background(), []dandelion.Request{
		{Composition: "E"}, {Composition: "E"},
	})
	for i, r := range res {
		if !errors.Is(r.Err, cluster.ErrRemote) {
			t.Fatalf("result %d: err = %v, want ErrRemote", i, r.Err)
		}
	}
	if _, err := rn.NodeStats(); !errors.Is(err, cluster.ErrRemote) {
		t.Fatalf("stats err = %v, want ErrRemote", err)
	}
}

func TestRemoteNodeStatsAndWeight(t *testing.T) {
	p, srv := newWorker(t, "sesame")
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{Token: "sesame"})

	if _, err := rn.Invoke(context.Background(), dandelion.Request{Composition: "E", Inputs: map[string][]dandelion.Item{
		"In": {{Name: "x", Data: []byte("hi")}},
	}}); err != nil {
		t.Fatal(err)
	}
	st, err := rn.NodeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Invocations < 1 || st.ComputeEngines < 1 {
		t.Fatalf("stats over the wire look empty: %+v", st)
	}

	rn.SetTenantWeight("alice", 5)
	if got := p.TenantWeight("alice"); got != 5 {
		t.Fatalf("weight = %d, want 5 (ControlErrors=%d)", got, rn.ControlErrors())
	}

	// Without the token the control-plane call is refused and counted.
	anon := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})
	anon.SetTenantWeight("alice", 9)
	if anon.ControlErrors() != 1 {
		t.Fatalf("ControlErrors = %d, want 1", anon.ControlErrors())
	}
	if got := p.TenantWeight("alice"); got != 5 {
		t.Fatalf("unauthorized weight update applied: %d", got)
	}
}

// TestHeartbeaterJoinsAndRejoins drives the full membership loop: a
// worker joins a coordinator, goes silent, is evicted after the missed-
// beat horizon, then a restarted heartbeater re-joins and the eviction
// record clears.
func TestHeartbeaterJoinsAndRejoins(t *testing.T) {
	cp, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Shutdown)
	m := cluster.NewManager()
	tr := cluster.NewTracker(m, 10*time.Millisecond, 2, nil)
	tr.Start()
	t.Cleanup(tr.Stop)
	coord := httptest.NewServer(frontend.NewWithConfig(cp, frontend.Config{Tracker: tr}))
	t.Cleanup(coord.Close)

	_, worker := newWorker(t, "")
	hb := &cluster.Heartbeater{
		Coordinator: coord.URL,
		Name:        "w1",
		SelfURL:     worker.URL,
		Interval:    10 * time.Millisecond,
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	go hb.Run(ctx1)
	waitFor("join", func() bool { return len(m.Workers()) == 1 })

	// Silence the worker: the tracker must evict within the horizon.
	cancel1()
	waitFor("eviction", func() bool { return tr.AggregateStats().Evictions >= 1 })
	if got := len(m.Workers()); got != 0 {
		t.Fatalf("workers after eviction = %d, want 0", got)
	}
	if ev := tr.AggregateStats().Evicted; len(ev) != 1 || ev[0].Name != "w1" {
		t.Fatalf("Evicted = %+v, want one w1 record", ev)
	}

	// A restarted worker re-joins on its own.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go hb.Run(ctx2)
	waitFor("re-join", func() bool { return len(m.Workers()) == 1 })
	waitFor("eviction record cleared", func() bool { return len(tr.AggregateStats().Evicted) == 0 })
	// The coordinator lists the worker as soon as it handles the join,
	// before the Heartbeater has read the reply and counted it.
	waitFor("Joins >= 2", func() bool { return hb.Joins() >= 2 })
}

// TestRemoteNodeSpeaksFrames pins the hop's one framing: the very
// first Invoke and the very first InvokeBatch a RemoteNode sends both
// arrive at the worker as binary frames, and both answers decode.
func TestRemoteNodeSpeaksFrames(t *testing.T) {
	p, _ := newWorker(t, "")
	var mu sync.Mutex
	var seen []string
	h := frontend.New(p)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.Path+" "+r.Header.Get("Content-Type"))
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	in := func(payload string) map[string][]dandelion.Item {
		return map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte(payload)}}}
	}
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})
	out, err := rn.Invoke(context.Background(), dandelion.Request{Composition: "E", Inputs: in("one")})
	if err != nil || string(out["Result"][0].Data) != "one" {
		t.Fatalf("first Invoke: %v %v", out, err)
	}
	res := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{}).InvokeBatch(context.Background(),
		[]dandelion.Request{{Composition: "E", Inputs: in("two")}})
	if res[0].Err != nil || string(res[0].Outputs["Result"][0].Data) != "two" {
		t.Fatalf("first InvokeBatch: %+v", res[0])
	}

	mu.Lock()
	defer mu.Unlock()
	want := "/invoke-batch/E " + wire.ContentTypeBinary
	if len(seen) != 2 || seen[0] != want || seen[1] != want {
		t.Fatalf("requests at the worker = %q, want two of %q", seen, want)
	}
}

// TestRemoteNodeBreakerRefusalNotRetried: once a RemoteNode's breaker
// is open, its own refusal is final. The breaker refuses until its
// cooldown ends, so backing off and re-asking — after the failure that
// tripped it or after a refusal — only stalls the caller (a
// /stats/cluster poll, a routed batch) and counts refusals as retries.
func TestRemoteNodeBreakerRefusalNotRetried(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	t.Cleanup(srv.Close)
	const base = time.Second
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{
		MaxRetries: 2, RetryBase: base, BreakerThreshold: 1, BreakerCooldown: time.Hour,
	})
	// The shortest jittered backoff is base/2: calls that return before
	// it were never retried.
	start := time.Now()
	// The first stats poll's 502 trips the breaker.
	if _, err := rn.NodeStats(); !errors.Is(err, cluster.ErrRemote) || errors.Is(err, cluster.ErrBreakerOpen) {
		t.Fatalf("tripping NodeStats err = %v, want a transport failure", err)
	}
	if st := rn.BreakerState(); st != cluster.BreakerOpen {
		t.Fatalf("breaker = %q, want open", st)
	}
	if _, err := rn.NodeStats(); !errors.Is(err, cluster.ErrBreakerOpen) {
		t.Fatalf("NodeStats err = %v, want ErrBreakerOpen", err)
	}
	keyed := []dandelion.Request{{Composition: "E", Key: "k1"}}
	if res := rn.InvokeBatch(context.Background(), keyed); !errors.Is(res[0].Err, cluster.ErrBreakerOpen) {
		t.Fatalf("keyed InvokeBatch err = %v, want ErrBreakerOpen", res[0].Err)
	}
	if d := time.Since(start); d >= base/2 {
		t.Fatalf("three calls took %v, want well inside the %v retry base", d, base)
	}
	if got := rn.Retries(); got != 0 {
		t.Fatalf("Retries = %d, want 0", got)
	}
}

// Remote-transport tests: a real worker frontend behind httptest, a
// RemoteNode dialing it, and the Heartbeater/Tracker membership loop.
// These live in an external test package because the frontend imports
// the cluster package.
package cluster_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
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
		t.Fatalf("weight = %d, want 5", got)
	}

	// Without the token the control-plane call is refused, and a
	// manager fanning the weight out counts no worker that applied it.
	m := cluster.NewManager()
	if err := m.Register("anon", cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})); err != nil {
		t.Fatal(err)
	}
	if n := m.SetTenantWeight("alice", 9); n != 0 {
		t.Fatalf("unauthorized fan-out applied to %d workers, want 0", n)
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
// is open, its own refusal is final: neither the failure that tripped
// it nor a refusal goes out to the worker again.
func TestRemoteNodeBreakerRefusalNotRetried(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	t.Cleanup(srv.Close)
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{BreakerThreshold: 1, BreakerCooldown: time.Hour})
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
	if n := hits.Load(); n != 1 {
		t.Fatalf("worker saw %d requests, want only the tripping one", n)
	}
}

// echoReq is one request for the echo composition E.
func echoReq(payload string) dandelion.Request {
	return dandelion.Request{Composition: "E", Inputs: map[string][]dandelion.Item{
		"In": {{Name: "x", Data: []byte(payload)}},
	}}
}

// TestCallerDeadlineIsNotWorkerFailure: a call that its caller's own
// deadline cuts short says nothing about the worker. Five calls with a
// 5ms budget against a live worker that answers in 50ms leave its
// breaker (threshold 5) closed and untripped.
func TestCallerDeadlineIsNotWorkerFailure(t *testing.T) {
	p, _ := newWorker(t, "")
	h := frontend.New(p)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(50 * time.Millisecond):
			h.ServeHTTP(w, r)
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		res := rn.InvokeBatch(ctx, []dandelion.Request{echoReq("x")})
		cancel()
		if !errors.Is(res[0].Err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want the caller's deadline", i, res[0].Err)
		}
	}
	if st := rn.BreakerState(); st != cluster.BreakerClosed {
		t.Fatalf("breaker = %q after five caller deadlines, want closed", st)
	}
	if trips, _ := rn.BreakerCounters(); trips != 0 {
		t.Fatalf("BreakerTrips = %d, want 0", trips)
	}
}

// TestHalfOpenProbeCutShortByCaller: a half-open probe that ends by its
// caller's deadline frees the probe slot and leaves the cooldown as it
// was, so the very next call goes through as the probe and, answered,
// closes the breaker.
func TestHalfOpenProbeCutShortByCaller(t *testing.T) {
	p, _ := newWorker(t, "")
	h := frontend.New(p)
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1: // trips the threshold-1 breaker
			w.WriteHeader(http.StatusBadGateway)
		case 2: // the probe: slower than its caller's budget
			io.Copy(io.Discard, r.Body) // a server notices a gone client only once the body is read
			<-r.Context().Done()
		default:
			h.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	const cooldown = 100 * time.Millisecond
	rn := cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{BreakerThreshold: 1, BreakerCooldown: cooldown})
	bg := context.Background()

	if res := rn.InvokeBatch(bg, []dandelion.Request{echoReq("a")}); !errors.Is(res[0].Err, cluster.ErrRemote) {
		t.Fatalf("tripping call: err = %v, want ErrRemote", res[0].Err)
	}
	if st := rn.BreakerState(); st != cluster.BreakerOpen {
		t.Fatalf("after the 502: breaker = %q, want open", st)
	}
	time.Sleep(cooldown + 20*time.Millisecond)

	ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
	res := rn.InvokeBatch(ctx, []dandelion.Request{echoReq("b")})
	cancel()
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("probe: err = %v, want the caller's deadline", res[0].Err)
	}

	res = rn.InvokeBatch(bg, []dandelion.Request{echoReq("c")})
	if res[0].Err != nil || string(res[0].Outputs["Result"][0].Data) != "c" {
		t.Fatalf("call after the cut-short probe: %+v, want it admitted as the probe", res[0])
	}
	if st := rn.BreakerState(); st != cluster.BreakerClosed {
		t.Fatalf("after the answered probe: breaker = %q, want closed", st)
	}
	if trips, _ := rn.BreakerCounters(); trips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", trips)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("worker saw %d requests, want 3", n)
	}
}

// TestFailedChunkReachesWorkerOnce: the manager's keyed reroute is the
// one retry on the coordinator→worker hop. A chunk routed to a worker
// that answers 502 reaches that worker exactly once, then moves to the
// survivor.
func TestFailedChunkReachesWorkerOnce(t *testing.T) {
	_, good := newWorker(t, "")
	var hits atomic.Int32
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	t.Cleanup(bad.Close)
	m := cluster.NewManager()
	if err := m.Register("bad", cluster.NewRemoteNode(bad.URL, cluster.RemoteOptions{})); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("good", cluster.NewRemoteNode(good.URL, cluster.RemoteOptions{})); err != nil {
		t.Fatal(err)
	}

	// Two requests, two workers: one chunk of one lands on each.
	res := m.InvokeBatch(context.Background(), []dandelion.Request{echoReq("a"), echoReq("b")})
	for i, want := range []string{"a", "b"} {
		if res[i].Err != nil || string(res[i].Outputs["Result"][0].Data) != want {
			t.Fatalf("result %d: %+v, want %q", i, res[i], want)
		}
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("the 502 worker was sent its chunk %d times, want 1", n)
	}
	for _, ws := range m.Stats() {
		if ws.Name == "bad" && ws.Rerouted != 1 {
			t.Fatalf("bad worker Rerouted = %d, want 1", ws.Rerouted)
		}
	}
}

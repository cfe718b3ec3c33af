// Keyed (idempotent) routing tests: the manager's chunk-key
// assignment, the lifted single-request retry restraint, the
// same-worker retry fallback, and — with a real journaled platform
// behind the members — the exactly-once guarantee that worker-side
// dedup gives retried chunks.
package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dandelion/internal/core"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
)

// upperPlatform builds a real core platform (journaled via opts) with
// the uppercase echo composition registered.
func upperPlatform(t *testing.T, opts core.Options) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if err := p.RegisterFunction(core.ComputeFunc{Name: "Upper", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		out := memctx.Set{Name: "Out"}
		for _, it := range in[0].Items {
			out.Items = append(out.Items, memctx.Item{
				Name: it.Name, Data: []byte(strings.ToUpper(string(it.Data))),
			})
		}
		return []memctx.Set{out}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	return p
}

// lossyNode executes its chunk on a real platform but reports the
// first batch as a wholesale transport failure — the work ran, the
// response was lost. What a worker looks like behind a flaky network.
type lossyNode struct {
	p     *core.Platform
	drops atomic.Int32
}

func (l *lossyNode) Invoke(ctx context.Context, req core.Request) (map[string][]memctx.Item, error) {
	return l.p.Invoke(ctx, req)
}

func (l *lossyNode) InvokeBatch(ctx context.Context, reqs []core.Request) []core.Result {
	res := l.p.InvokeBatch(ctx, reqs)
	if l.drops.Add(1) == 1 {
		for i := range res {
			res[i] = core.Result{Err: errors.New("cluster: response lost")}
		}
	}
	return res
}

// upperReqs builds n requests of the U composition under tenant alice.
func upperReqs(n int) []core.Request { return batchReqs("alice", "U", n) }

// TestKeyedSingleRequestRetrySameWorker: without keys a single-request
// chunk is never retried; with EnableKeyedRetries it is, and with no
// alternative survivor the retry goes back to the same worker — where
// the dedup table answers from the first execution's cached outputs.
// Exactly-once, observed end to end: one platform invocation, one
// dedup hit, a clean client result.
func TestKeyedSingleRequestRetrySameWorker(t *testing.T) {
	p := upperPlatform(t, core.Options{Journal: journal.NewMemory()})
	m := NewManager(RoundRobin)
	m.EnableKeyedRetries("life1")
	if err := m.Register("w1", &lossyNode{p: p}); err != nil {
		t.Fatal(err)
	}

	res := m.InvokeBatch(bg, upperReqs(1))
	if res[0].Err != nil {
		t.Fatalf("keyed single-request chunk not recovered: %v", res[0].Err)
	}
	if got := string(res[0].Outputs["Result"][0].Data); got != "A" {
		t.Fatalf("output = %q, want A", got)
	}
	st := p.Stats()
	if st.Invocations != 1 {
		t.Fatalf("invocations = %d, want 1 (retry must dedup, not re-execute)", st.Invocations)
	}
	if st.DedupHits != 1 {
		t.Fatalf("dedup hits = %d, want 1", st.DedupHits)
	}
	for _, ws := range m.Stats() {
		if ws.Name == "w1" && ws.Rerouted != 1 {
			t.Fatalf("w1.Rerouted = %d, want 1", ws.Rerouted)
		}
	}
}

// TestUnkeyedSingleRequestStillNotRetried: the lifted restraint is
// strictly opt-in — without keys the old heuristic stands and a failed
// single-request chunk surfaces its error.
func TestUnkeyedSingleRequestStillNotRetried(t *testing.T) {
	p := upperPlatform(t, core.Options{})
	m := NewManager(RoundRobin)
	if err := m.Register("w1", &lossyNode{p: p}); err != nil {
		t.Fatal(err)
	}
	res := m.InvokeBatch(bg, upperReqs(1))
	if res[0].Err == nil {
		t.Fatal("unkeyed single-request chunk was retried")
	}
}

// keyedSabotageNode is the PR-6 stale-snapshot saboteur re-armed for
// the journaled world: it executes its chunk on a shared journaled
// platform, reports wholesale failure, and deregisters the would-be
// survivor mid-batch.
type keyedSabotageNode struct {
	lossyNode
	m      *Manager
	victim string
	once   sync.Once
}

func (s *keyedSabotageNode) InvokeBatch(ctx context.Context, reqs []core.Request) []core.Result {
	s.once.Do(func() { s.m.Deregister(s.victim) })
	return s.lossyNode.InvokeBatch(ctx, reqs)
}

// TestKeyedRerouteSkipsDeregisteredSurvivorDedups re-runs the PR-6
// stale-snapshot regression with journaling on: the survivor chosen at
// retry time must come from live membership (not the pre-batch
// snapshot), and because the chunk already executed before its failure
// report, the retried chunk must be answered by the dedup table — not
// double-executed. Both members front the same journaled platform, so
// the second execution attempt hits the keys the first one completed.
func TestKeyedRerouteSkipsDeregisteredSurvivorDedups(t *testing.T) {
	p := upperPlatform(t, core.Options{Journal: journal.NewMemory()})
	m := NewManager(LeastLoaded)
	m.EnableKeyedRetries("life1")
	dying := &keyedSabotageNode{lossyNode: lossyNode{p: p}, m: m, victim: "stale"}
	stale := &fakeNode{}
	live := &lossyNode{p: p}
	live.drops.Store(1) // never drop: only "dying" loses its response
	if err := m.Register("dying", dying); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("stale", stale); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("live", live); err != nil {
		t.Fatal(err)
	}

	res := m.InvokeBatch(bg, upperReqs(6))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("result %d not recovered: %v", i, r.Err)
		}
	}
	if stale.calls.Load() != 0 {
		t.Fatalf("deregistered worker served %d invocations, want 0", stale.calls.Load())
	}
	st := p.Stats()
	if st.Invocations != 6 {
		t.Fatalf("invocations = %d, want 6 (retried chunk must dedup, not double-execute)", st.Invocations)
	}
	if st.DedupHits != 6 {
		t.Fatalf("dedup hits = %d, want 6", st.DedupHits)
	}
}

// keysSeen lists the keys of the requests a fake was handed, in order.
func keysSeen(n *fakeNode) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	keys := make([]string, len(n.seen))
	for i, r := range n.seen {
		keys[i] = r.Key
	}
	return keys
}

// TestInvokeBatchCallerKeys: caller-supplied keys flow through to the
// workers' requests verbatim — a partially keyed batch stays partially
// keyed — and EnableKeyedRetries fills only the empty ones, leaving the
// caller's slice untouched.
func TestInvokeBatchCallerKeys(t *testing.T) {
	n := &fakeNode{}
	m := NewManager(RoundRobin)
	if err := m.Register("w1", n); err != nil {
		t.Fatal(err)
	}
	reqs := upperReqs(3)
	reqs[0].Key, reqs[2].Key = "k0", "k2"
	for i, r := range m.InvokeBatch(bg, reqs) {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}
	if got := keysSeen(n); len(got) != 3 || got[0] != "k0" || got[1] != "" || got[2] != "k2" {
		t.Fatalf("worker saw keys %v", got)
	}

	m.EnableKeyedRetries("life1")
	m.InvokeBatch(bg, reqs)
	got := keysSeen(n)[3:]
	if len(got) != 3 || got[0] != "k0" || got[1] != journal.ChunkKey("life1-1", 1) || got[2] != "k2" {
		t.Fatalf("with keyed retries the worker saw keys %v", got)
	}
	if reqs[1].Key != "" {
		t.Fatalf("manager wrote key %q into the caller's slice", reqs[1].Key)
	}
}

// TestManagerInvokeKeyed: a single keyed invocation reaches the worker
// with the key intact and dedups re-sends.
func TestManagerInvokeKeyed(t *testing.T) {
	p := upperPlatform(t, core.Options{Journal: journal.NewMemory()})
	m := NewManager(RoundRobin)
	if err := m.Register("w1", p); err != nil {
		t.Fatal(err)
	}
	req := upperReqs(1)[0]
	req.Key = "req-1"
	out, err := m.Invoke(bg, req)
	if err != nil || string(out["Result"][0].Data) != "A" {
		t.Fatalf("keyed invoke: %v %v", out, err)
	}
	// The re-send replays cached outputs without executing.
	out, err = m.Invoke(bg, req)
	if err != nil || string(out["Result"][0].Data) != "A" {
		t.Fatalf("keyed re-send: %v %v", out, err)
	}
	if st := p.Stats(); st.Invocations != 1 || st.DedupHits != 1 {
		t.Fatalf("invocations=%d hits=%d, want 1/1", st.Invocations, st.DedupHits)
	}
}

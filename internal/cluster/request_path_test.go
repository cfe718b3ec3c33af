package cluster_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/core"
	"dandelion/internal/frontend"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
)

// gatedPlatform is a journaled one-engine, one-slot platform whose only
// function upper-cases its input — except the payload "block", which
// holds its engine until the gate closes. With the single dispatch slot
// held, every later request parks in the scheduler's backlog, which is
// where a deadline is enforced without executing anything.
type gatedPlatform struct {
	p       *core.Platform
	jrnl    *journal.Memory
	gate    chan struct{}
	entered chan struct{}
	ran     atomic.Int64 // executions other than the blocker
}

func newGatedPlatform(t *testing.T) *gatedPlatform {
	t.Helper()
	g := &gatedPlatform{jrnl: journal.NewMemory(), gate: make(chan struct{}), entered: make(chan struct{})}
	p, err := core.NewPlatform(core.Options{ComputeEngines: 1, DispatchWindow: 1, Journal: g.jrnl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	g.p = p
	if err := p.RegisterFunction(core.ComputeFunc{Name: "Upper", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		data := string(in[0].Items[0].Data)
		if data == "block" {
			close(g.entered)
			<-g.gate
		} else {
			g.ran.Add(1)
		}
		return []memctx.Set{{Name: "Out", Items: []memctx.Item{{Name: "r", Data: []byte(strings.ToUpper(data))}}}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	return g
}

func upperReq(tenant, key, data string) core.Request {
	return core.Request{
		Composition: "U", Tenant: tenant, Key: key,
		Inputs: map[string][]memctx.Item{"In": {{Name: "x", Data: []byte(data)}}},
	}
}

// TestRequestArrivesIntact sends the same Request — tenant, key and a
// deadline — down every path the system has, and checks all three
// arrive at the executing platform: the deadline drops the request
// unexecuted in the tenant's backlog (per-tenant Expired), the journal
// records it under its tenant and key, and re-sending the key after it
// completed answers from the dedup table.
func TestRequestArrivesIntact(t *testing.T) {
	paths := []struct {
		name  string
		build func(t *testing.T, p *core.Platform) cluster.Node
	}{
		{"Platform", func(t *testing.T, p *core.Platform) cluster.Node { return p }},
		{"Manager→Platform", func(t *testing.T, p *core.Platform) cluster.Node {
			m := cluster.NewManager(cluster.RoundRobin)
			if err := m.Register("w", p); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"Manager→RemoteNode→frontend→Platform", func(t *testing.T, p *core.Platform) cluster.Node {
			srv := httptest.NewServer(frontend.New(&dandelion.Platform{Platform: p}))
			t.Cleanup(srv.Close)
			m := cluster.NewManager(cluster.RoundRobin)
			if err := m.Register("w", cluster.NewRemoteNode(srv.URL, cluster.RemoteOptions{})); err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			g := newGatedPlatform(t)
			target := path.build(t, g.p)
			bg := context.Background()

			// Hold the platform's only dispatch slot.
			blocked := make(chan error, 1)
			go func() {
				_, err := g.p.Invoke(bg, upperReq("blocker", "", "block"))
				blocked <- err
			}()
			<-g.entered

			// The request under test parks behind the blocker and
			// outlives its deadline there; an in-process Invoke returns
			// only once the scheduler drops it, after the gate opens.
			req := upperReq("alice", "k-1", "hi")
			const budget = 300 * time.Millisecond
			ctx, cancel := context.WithTimeout(bg, budget)
			defer cancel()
			sent := time.Now()
			expired := make(chan error, 1)
			go func() {
				_, err := target.Invoke(ctx, req)
				expired <- err
			}()
			// Every hop's copy of the deadline has passed once the whole
			// budget (plus transit slack) has elapsed since the send.
			time.Sleep(time.Until(sent.Add(budget + 50*time.Millisecond)))
			close(g.gate)
			if err := <-blocked; err != nil {
				t.Fatal(err)
			}
			if err := <-expired; err == nil {
				t.Fatal("request parked past its deadline succeeded")
			}

			// Dropped unexecuted, under its tenant, as deadline-class:
			// TimedOut ticks last, after the failed key was released.
			for deadline := time.Now().Add(5 * time.Second); g.p.Stats().TimedOut == 0; {
				if time.Now().After(deadline) {
					t.Fatalf("deadline never reached the platform: %+v", g.p.Stats())
				}
				time.Sleep(time.Millisecond)
			}
			var alice dandelion.TenantStats
			for _, ts := range g.p.Stats().Tenants {
				if ts.Tenant == "alice" {
					alice = ts
				}
			}
			if alice.Expired != 1 || g.ran.Load() != 0 {
				t.Fatalf("alice gauges = %+v, executions = %d; want one expiry, nothing run", alice, g.ran.Load())
			}

			// The failed key is retryable; once it completes, a re-send
			// dedups.
			for i := 0; i < 2; i++ {
				out, err := target.Invoke(bg, req)
				if err != nil || string(out["Result"][0].Data) != "HI" {
					t.Fatalf("send %d after the expiry: %v %v", i, out, err)
				}
			}
			if st := g.p.Stats(); g.ran.Load() != 1 || st.DedupHits != 1 {
				t.Fatalf("executions = %d, dedup hits = %d; want 1 and 1", g.ran.Load(), st.DedupHits)
			}

			// Tenant and key as the platform journaled them: one begin
			// per execution attempt (expired, then successful).
			begins := 0
			g.jrnl.Replay(func(rec journal.Record) error {
				if rec.Kind == journal.KindInvokeBegin {
					begins++
					if rec.Tenant != "alice" || rec.Key != "k-1" || rec.Comp != "U" {
						t.Errorf("journaled begin = %+v, want tenant alice, key k-1, composition U", rec)
					}
				}
				return nil
			})
			if begins != 2 {
				t.Fatalf("journaled %d begin records, want 2", begins)
			}
		})
	}
}

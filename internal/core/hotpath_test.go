// Tests for the hot-path overhaul: sharded-counter consistency under
// concurrency, the invocation-plan cache, context pooling through the
// dispatcher, and sched-aware batch chunking.
package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dandelion/internal/memctx"
	"dandelion/internal/sched"
)

// registerEcho registers the identity function and a single-statement
// composition around it, returning the input builder. Each invocation
// moves exactly one input set and one output set across the context
// boundary, so counter expectations are exact.
func registerEcho(t *testing.T, p *Platform) func(payload string) map[string][]memctx.Item {
	t.Helper()
	err := p.RegisterFunction(ComputeFunc{Name: "Echo", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		return []memctx.Set{{Name: "Out", Items: in[0].Items}}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	return func(payload string) map[string][]memctx.Item {
		return map[string][]memctx.Item{"In": {{Name: "i", Data: []byte(payload)}}}
	}
}

// TestStatsCounterConsistencyConcurrentInvokes drives concurrent
// single invokes in both data-plane modes and requires the merged
// sharded counters to equal the completed work exactly — increments
// are atomic per shard and never sampled, so nothing may be lost.
// Run under -race this also checks the shards themselves.
func TestStatsCounterConsistencyConcurrentInvokes(t *testing.T) {
	const goroutines = 8
	const perG = 40
	const payload = "0123456789" // 10 bytes in, 10 bytes out per invoke
	for _, zc := range []bool{false, true} {
		name := "copy"
		if zc {
			name = "zerocopy"
		}
		t.Run(name, func(t *testing.T) {
			p := newPlatform(t, Options{ComputeEngines: 4, ZeroCopy: zc})
			input := registerEcho(t, p)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					tenant := fmt.Sprintf("t%d", g%3)
					for i := 0; i < perG; i++ {
						out, err := p.Invoke(context.Background(), Request{Composition: "E", Tenant: tenant, Inputs: input(payload)})
						if err != nil {
							t.Error(err)
							return
						}
						if string(out["Result"][0].Data) != payload {
							t.Errorf("bad result %q", out["Result"][0].Data)
							return
						}
					}
				}()
			}
			wg.Wait()

			const invokes = goroutines * perG
			const sets = 2 * invokes                    // one input + one output set each
			const setBytes = 2 * len(payload) * invokes // 10 bytes each way
			st := p.Stats()
			if st.Invocations != invokes {
				t.Errorf("Invocations = %d, want %d", st.Invocations, invokes)
			}
			if zc {
				if st.ZeroCopyHandoffs != sets || st.ZeroCopyHandoffBytes != uint64(setBytes) {
					t.Errorf("handoffs = %d (%d bytes), want %d (%d bytes)",
						st.ZeroCopyHandoffs, st.ZeroCopyHandoffBytes, sets, setBytes)
				}
				if st.CopiedSets != 0 || st.CopiedBytes != 0 {
					t.Errorf("zero-copy mode cloned %d sets (%d bytes)", st.CopiedSets, st.CopiedBytes)
				}
			} else {
				if st.CopiedSets != sets || st.CopiedBytes != uint64(setBytes) {
					t.Errorf("copies = %d (%d bytes), want %d (%d bytes)",
						st.CopiedSets, st.CopiedBytes, sets, setBytes)
				}
				if st.ZeroCopyHandoffs != 0 || st.ZeroCopyHandoffBytes != 0 {
					t.Errorf("copying mode recorded %d handoffs", st.ZeroCopyHandoffs)
				}
			}
			// Every invoke acquires exactly one context, pooled or fresh.
			if got := st.PooledContextReuses + st.PooledContextAllocs; got != invokes {
				t.Errorf("context acquisitions = %d (%d reused + %d fresh), want %d",
					got, st.PooledContextReuses, st.PooledContextAllocs, invokes)
			}
			if st.Batches != 0 {
				t.Errorf("Batches = %d, want 0", st.Batches)
			}
		})
	}
}

// TestStatsCounterConsistencyConcurrentBatches mirrors the invoke test
// on the chunked batch path, where contexts are acquired per chunk
// rather than per instance.
func TestStatsCounterConsistencyConcurrentBatches(t *testing.T) {
	const goroutines = 4
	const perG = 10
	const batch = 16
	for _, zc := range []bool{false, true} {
		name := "copy"
		if zc {
			name = "zerocopy"
		}
		t.Run(name, func(t *testing.T) {
			p := newPlatform(t, Options{ComputeEngines: 4, ZeroCopy: zc})
			input := registerEcho(t, p)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						reqs := make([]Request, batch)
						for j := range reqs {
							reqs[j] = Request{Composition: "E", Inputs: input("x")}
						}
						for _, res := range p.InvokeBatch(context.Background(), reqs) {
							if res.Err != nil {
								t.Error(res.Err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()

			const batches = goroutines * perG
			const invokes = batches * batch
			const sets = 2 * invokes
			st := p.Stats()
			if st.Batches != batches {
				t.Errorf("Batches = %d, want %d", st.Batches, batches)
			}
			if st.Invocations != invokes {
				t.Errorf("Invocations = %d, want %d", st.Invocations, invokes)
			}
			moved, other := st.CopiedSets, st.ZeroCopyHandoffs
			if zc {
				moved, other = st.ZeroCopyHandoffs, st.CopiedSets
			}
			if moved != sets {
				t.Errorf("boundary crossings = %d, want %d", moved, sets)
			}
			if other != 0 {
				t.Errorf("wrong-path crossings = %d, want 0", other)
			}
			// Chunked: at least one context per batch, at most one per
			// instance; the exact count depends on the chunk split.
			acq := st.PooledContextReuses + st.PooledContextAllocs
			if acq < batches || acq > invokes {
				t.Errorf("context acquisitions = %d, want within [%d, %d]", acq, batches, invokes)
			}
		})
	}
}

// TestPlanCacheFollowsRegistryGrowth: a composition invoked before its
// function exists must fail, then succeed — without restarting the
// platform — once the function is registered. The cached plan must not
// pin the stale resolution.
func TestPlanCacheFollowsRegistryGrowth(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 2})
	if _, err := p.RegisterCompositionText(`
composition L(In) => Result {
    Late(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	in := map[string][]memctx.Item{"In": {{Name: "i", Data: []byte("v")}}}
	if _, err := p.Invoke(context.Background(), Request{Composition: "L", Inputs: in}); err == nil {
		t.Fatal("invoke before function registration should fail")
	}
	err := p.RegisterFunction(ComputeFunc{Name: "Late", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		return []memctx.Set{{Name: "Out", Items: in[0].Items}}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "L", Inputs: in})
	if err != nil {
		t.Fatalf("invoke after late registration: %v", err)
	}
	if string(out["Result"][0].Data) != "v" {
		t.Fatalf("result = %+v", out["Result"])
	}
}

// TestPlanCacheReuse: repeated invokes of a registered composition hit
// one cached plan (pointer-identical), rebuilt only when the registry
// generation moves.
func TestPlanCacheReuse(t *testing.T) {
	p := newPlatform(t, Options{})
	registerEcho(t, p)
	comp, err := p.reg.composition("E")
	if err != nil {
		t.Fatal(err)
	}
	pl1 := p.planFor(comp)
	pl2 := p.planFor(comp)
	if pl1 != pl2 {
		t.Fatal("planFor rebuilt an up-to-date plan")
	}
	if !pl1.complete || len(pl1.stmts) != 1 || pl1.stmts[0].v.fn == nil {
		t.Fatalf("plan not fully resolved: %+v", pl1)
	}
	if !pl1.stmts[0].broadcastOnly {
		t.Fatal("all-mode statement not marked broadcastOnly")
	}
	// A registration of any kind invalidates.
	if err := p.RegisterFunction(ComputeFunc{Name: "Other", Go: func(in []memctx.Set) ([]memctx.Set, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	if pl3 := p.planFor(comp); pl3 == pl1 {
		t.Fatal("planFor served a stale-generation plan")
	}
}

// TestSchedAwareChunks: a tenant alone on the platform keeps the
// one-chunk-per-engine split; the same tenant contending with another
// tenant's queued work gets a finer split, capped at 4x engines.
func TestSchedAwareChunks(t *testing.T) {
	const engines = 4
	p := newPlatform(t, Options{ComputeEngines: engines})

	if got := p.schedAwareChunks("alice", 1000, 0); got != engines {
		t.Fatalf("solo chunks = %d, want %d", got, engines)
	}
	if got := p.schedAwareChunks("alice", 3, 0); got != 3 {
		t.Fatalf("tiny work list chunks = %d, want 3", got)
	}

	// Park another tenant's work: occupy every engine with blocked
	// tasks so a backlog forms, making "bob" active from alice's view.
	block := make(chan struct{})
	var running sync.WaitGroup
	for i := 0; i < engines+2; i++ {
		running.Add(1)
		err := p.computeSched.Submit("bob", sched.Task{Do: func() {
			running.Done()
			<-block
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Wait until bob's tasks are at least dispatched/running.
	deadline := time.Now().Add(2 * time.Second)
	for p.computeSched.Share("alice") >= 1 {
		if time.Now().After(deadline) {
			t.Fatal("bob never became active")
		}
		time.Sleep(time.Millisecond)
	}
	if share := p.computeSched.Share("alice"); share >= 1 || share <= 0 {
		t.Fatalf("contended share = %v, want in (0,1)", share)
	}
	got := p.schedAwareChunks("alice", 1000, 0)
	if got <= engines {
		t.Fatalf("contended chunks = %d, want > %d", got, engines)
	}
	if got > 4*engines {
		t.Fatalf("contended chunks = %d, want <= %d", got, 4*engines)
	}
	close(block)
	running.Wait()
}

// TestShareWeighted: Share reflects DRR weights of active tenants.
func TestShareWeighted(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 1, TenantWeights: map[string]int{"heavy": 3}})
	block := make(chan struct{})
	defer close(block)
	if err := p.computeSched.Submit("heavy", sched.Task{Do: func() { <-block }}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.computeSched.Share("light") >= 1 {
		if time.Now().After(deadline) {
			t.Fatal("heavy never became active")
		}
		time.Sleep(time.Millisecond)
	}
	// light (weight 1) vs heavy (weight 3) active: share = 1/4.
	if got := p.computeSched.Share("light"); got != 0.25 {
		t.Fatalf("Share(light) = %v, want 0.25", got)
	}
}

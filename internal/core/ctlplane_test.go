package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dandelion/internal/ctlplane"
	"dandelion/internal/memctx"
)

// registerUpper registers the upper function behind a one-statement
// composition U(In) => Result.
func registerUpper(t *testing.T, p *Platform) {
	t.Helper()
	if err := p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureEngineCountsLive(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 2, CommEngines: 1})
	registerUpper(t, p)

	p.SetEngineCounts(4, 2)
	if c, m := p.EngineCounts(); c != 4 || m != 2 {
		t.Fatalf("EngineCounts = (%d, %d), want (4, 2)", c, m)
	}
	// Zero/negative counts are clamped: the control plane never builds a
	// node that cannot dispatch.
	p.SetEngineCounts(0, -3)
	if c, m := p.EngineCounts(); c != 1 || m != 1 {
		t.Fatalf("EngineCounts after clamp = (%d, %d), want (1, 1)", c, m)
	}
	// The node still serves after both resizes.
	out, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: map[string][]memctx.Item{"In": items("live")}})
	if err != nil || string(out["Result"][0].Data) != "LIVE" {
		t.Fatalf("invoke after resize: %v %v", out, err)
	}
}

func TestTenantWeightAndShareReadback(t *testing.T) {
	p := newPlatform(t, Options{})
	if w := p.TenantWeight("alice"); w != 1 {
		t.Fatalf("unknown tenant weight = %d, want 1", w)
	}
	p.SetTenantWeight("alice", 5)
	if w := p.TenantWeight("alice"); w != 5 {
		t.Fatalf("weight after set = %d, want 5", w)
	}
	p.SetTenantWeight("alice", -2) // sched clamps
	if w := p.TenantWeight("alice"); w != 1 {
		t.Fatalf("weight after non-positive set = %d, want 1", w)
	}
	if sh := p.TenantShare("alice"); sh != 1 {
		t.Fatalf("solo share = %v, want 1", sh)
	}
}

func TestDrainRejectsNewWorkAndResumes(t *testing.T) {
	p := newPlatform(t, Options{})
	registerUpper(t, p)
	in := map[string][]memctx.Item{"In": items("x")}

	p.Drain()
	if !p.Draining() || !p.Stats().Draining {
		t.Fatal("Draining not reported")
	}
	if _, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: in}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Invoke while draining = %v, want ErrDraining", err)
	}
	res := p.InvokeBatch(context.Background(), []Request{{Composition: "U", Inputs: in}, {Composition: "U", Inputs: in}})
	for i, r := range res {
		if !errors.Is(r.Err, ErrDraining) {
			t.Fatalf("batch result %d while draining = %v, want ErrDraining", i, r.Err)
		}
	}

	p.Resume()
	if p.Draining() {
		t.Fatal("still draining after Resume")
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: in})
	if err != nil || string(out["Result"][0].Data) != "X" {
		t.Fatalf("invoke after resume: %v %v", out, err)
	}
}

func TestAdmissionClampReconfigure(t *testing.T) {
	p := newPlatform(t, Options{})
	if min, max := p.AdmissionClamp(); min != 1 || max != 64 {
		t.Fatalf("default clamp = [%d, %d], want [1, 64]", min, max)
	}
	p.SetAdmissionClamp(2, 8)
	if min, max := p.AdmissionClamp(); min != 2 || max != 8 {
		t.Fatalf("clamp = [%d, %d], want [2, 8]", min, max)
	}
	if w := p.Admission().Window("anyone", 0); w != 2 {
		t.Fatalf("idle window under clamp = %d, want 2", w)
	}
}

// TestElasticityGrowsComputePool drives a slow function hard enough to
// back up the compute plane and asserts the elasticity controller grows
// the pool (EngineResizes > 0) and that autoscale reconfiguration
// round-trips. The controller is stepped manually (no wall-clock
// dependence); Options.Autoscale still exercises the Start/Stop path.
func TestElasticityGrowsComputePool(t *testing.T) {
	p := newPlatform(t, Options{
		ComputeEngines: 1,
		Autoscale:      true,
	})
	if !p.AutoscaleOn() {
		t.Fatal("autoscale not on")
	}
	block := make(chan struct{})
	var once sync.Once
	if err := p.RegisterFunction(ComputeFunc{Name: "Slow", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		<-block
		return []memctx.Set{{Name: "Out", Items: in[0].Items}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition S(In) => Result {
    Slow(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}

	// Flood 32 single-instance invocations at a 1-engine pool; the
	// function blocks, so the backlog piles up in the scheduling plane.
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Invoke(context.Background(), Request{Composition: "S", Inputs: map[string][]memctx.Item{"In": items("x")}})
		}()
	}
	defer func() {
		once.Do(func() { close(block) })
		wg.Wait()
	}()

	// Wait until the backlog is visible, then step the controller past
	// its hysteresis.
	deadline := time.After(5 * time.Second)
	for p.elasticSignals().QueueLen < 8 {
		select {
		case <-deadline:
			t.Fatalf("backlog never formed: %+v", p.elasticSignals())
		case <-time.After(time.Millisecond):
		}
	}
	e := p.Elasticity()
	for i := 0; i < 8; i++ {
		e.StepOnce()
	}
	if got := p.Stats().EngineResizes; got == 0 {
		t.Fatalf("EngineResizes = %d, want > 0", got)
	}
	if c, _ := p.EngineCounts(); c < 2 {
		t.Fatalf("compute engines = %d, want >= 2 after growth", c)
	}

	// Runtime toggle: disabled controller stops acting.
	p.SetAutoscale(false)
	if p.AutoscaleOn() || p.Stats().AutoscaleOn {
		t.Fatal("autoscale still reported on")
	}
	before := p.Stats().EngineResizes
	for i := 0; i < 8; i++ {
		e.StepOnce()
	}
	if got := p.Stats().EngineResizes; got != before {
		t.Fatalf("disabled controller resized: %d -> %d", before, got)
	}

	once.Do(func() { close(block) })
	wg.Wait()
}

// TestPooledStoresIsolateInvocations: value stores and batch work
// lists recycle through sync.Pools (PR-5 hot-path satellite); alternate
// differently-shaped compositions and batches to catch any state
// leaking across reuses.
func TestPooledStoresIsolateInvocations(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 2})
	if err := p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper}); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterFunction(ComputeFunc{Name: "Concat", Go: concat}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}
composition C(A, B) => Joined {
    Concat(x = all A, y = all B) => (Joined = Out);
}`); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 50; i++ {
		out, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: map[string][]memctx.Item{"In": items("ab")}})
		if err != nil || string(out["Result"][0].Data) != "AB" {
			t.Fatalf("iter %d: U = %v %v", i, out, err)
		}
		out, err = p.Invoke(context.Background(), Request{Composition: "C", Inputs: map[string][]memctx.Item{"A": items("1"), "B": items("2")}})
		if err != nil || string(out["Joined"][0].Data) != "1|2" {
			t.Fatalf("iter %d: C = %v %v", i, out, err)
		}
		res := p.InvokeBatch(context.Background(), []Request{
			{Composition: "U", Inputs: map[string][]memctx.Item{"In": items("x")}},
			{Composition: "C", Inputs: map[string][]memctx.Item{"A": items("l"), "B": items("r")}},
			{Composition: "U", Inputs: map[string][]memctx.Item{}},
		})
		if res[0].Err != nil || string(res[0].Outputs["Result"][0].Data) != "X" {
			t.Fatalf("iter %d: batch[0] = %+v", i, res[0])
		}
		if res[1].Err != nil || string(res[1].Outputs["Joined"][0].Data) != "l|r" {
			t.Fatalf("iter %d: batch[1] = %+v", i, res[1])
		}
		if !errors.Is(res[2].Err, ErrMissingInput) {
			t.Fatalf("iter %d: batch[2] err = %v", i, res[2].Err)
		}
	}
}

// TestSetEngineCountsClampedToElasticBounds: with a controller present,
// manual compute resizes are clamped into [Min, Max] at apply time —
// values outside them would only be reverted on the next control step,
// so the control plane reports the effective size immediately instead.
func TestSetEngineCountsClampedToElasticBounds(t *testing.T) {
	p := newPlatform(t, Options{
		ComputeEngines: 2,
		Autoscale:      true,
		Elasticity:     ctlplane.Config{Min: 2, Max: 4},
	})
	p.SetEngineCounts(1, 1) // below Min
	if c, _ := p.EngineCounts(); c != 2 {
		t.Fatalf("compute below Min applied as %d, want clamped to 2", c)
	}
	p.SetEngineCounts(10, 1) // above Max
	if c, _ := p.EngineCounts(); c != 4 {
		t.Fatalf("compute above Max applied as %d, want clamped to 4", c)
	}
	p.SetEngineCounts(3, 1)
	if c, _ := p.EngineCounts(); c != 3 {
		t.Fatalf("in-bounds compute applied as %d, want 3", c)
	}
	// With autoscale toggled off the operator takes manual control: the
	// bounds no longer apply.
	p.SetAutoscale(false)
	p.SetEngineCounts(10, 1)
	if c, _ := p.EngineCounts(); c != 10 {
		t.Fatalf("compute with autoscale off applied as %d, want 10", c)
	}
}

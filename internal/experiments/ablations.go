package experiments

import (
	"context"
	"fmt"
	"time"

	"dandelion"
	"dandelion/internal/faas"
	"dandelion/internal/isolation"
)

// AblationWarmCache compares Dandelion's always-cold design against a
// warm-sandbox cache (DESIGN.md ablation 1): the cache trims mean
// latency by the cold-start delta but reintroduces state the platform
// would have to keep committed.
func AblationWarmCache() Table {
	t := Table{
		Title:  "Ablation: per-request sandboxes vs warm-sandbox cache (128x128 matmul)",
		Header: []string{"Config", "RPS", "mean ms", "p99 ms", "cold %"},
	}
	for _, warm := range []bool{false, true} {
		cfg := faas.DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true, WarmCache: warm}
		pts := faas.Sweep(mkDandelion(cfg), faas.MatMul128(), []float64{1000, 3000}, 6, seed)
		name := "always cold (paper)"
		if warm {
			name = "warm cache"
		}
		for _, pt := range pts {
			t.Rows = append(t.Rows, []string{
				name, f0(pt.RPS), f2(pt.Summary.Mean), f2(pt.Summary.P99), f1(pt.ColdFraction * 100),
			})
		}
	}
	t.Notes = append(t.Notes,
		"cold starts cost ~0.18 ms cached on KVM: the paper's point is the delta is small enough to pay per request")
	return t
}

// AblationStaticSplit compares the PI controller against fixed
// compute/communication core splits (DESIGN.md ablation 2).
func AblationStaticSplit() Table {
	t := Table{
		Title:  "Ablation: PI controller vs static core split (fetch+compute, 16 cores)",
		Header: []string{"Config", "RPS", "p99 ms", "saturated"},
	}
	app := faas.FetchCompute(4)
	rates := []float64{1500, 2400}
	configs := []struct {
		name string
		cfg  faas.DandelionConfig
	}{
		{"PI controller", faas.DandelionConfig{Cores: 16, Profile: isolation.X86KVM, Cached: true, Balance: true}},
		{"static 15/1", faas.DandelionConfig{Cores: 16, CommCores: 1, Profile: isolation.X86KVM, Cached: true}},
		{"static 12/4", faas.DandelionConfig{Cores: 16, CommCores: 4, Profile: isolation.X86KVM, Cached: true}},
		{"static 8/8", faas.DandelionConfig{Cores: 16, CommCores: 8, Profile: isolation.X86KVM, Cached: true}},
	}
	for _, c := range configs {
		pts := faas.Sweep(mkDandelion(c.cfg), app, rates, 6, seed)
		for _, pt := range pts {
			t.Rows = append(t.Rows, []string{
				c.name, f0(pt.RPS), f2(pt.Summary.P99), fmt.Sprintf("%v", pt.Saturated(0.03)),
			})
		}
	}
	return t
}

// AblationBinaryCache quantifies §7.4's cached vs uncached binary
// loading across backends.
func AblationBinaryCache() Table {
	t := Table{
		Title:  "Ablation: binary cache (load from disk vs in-memory), unloaded cold start [µs]",
		Header: []string{"Backend", "uncached", "cached", "saved"},
	}
	for _, name := range isolation.Names() {
		b, _ := isolation.New(name)
		p := b.Cost()
		t.Rows = append(t.Rows, []string{
			name, f0(p.ColdStartUS(false)), f0(p.ColdStartUS(true)),
			f0(p.ColdStartUS(false) - p.ColdStartUS(true)),
		})
	}
	return t
}

// AblationZeroCopy compares the copying data path against zero-copy
// hand-off on the real platform (DESIGN.md ablation 3), using a
// fan-out composition that moves payloads between functions. It covers
// both entry points: single Invoke calls in a loop, and the batched
// dispatch path (InvokeBatch) over a multi-stage composition, where
// zero-copy also spans chunk boundaries between engines.
func AblationZeroCopy() Table {
	t := Table{
		Title:  "Ablation: data passing by copy vs zero-copy handoff (real platform)",
		Header: []string{"Mode", "invocations", "total ms", "ms/invocation"},
	}
	for _, zc := range []bool{false, true} {
		p, err := dandelion.New(dandelion.Options{ZeroCopy: zc, ComputeEngines: 4})
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		payload := make([]byte, 256<<10)
		p.RegisterFunction(dandelion.ComputeFunc{Name: "Produce", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			items := make([]dandelion.Item, 8)
			for i := range items {
				items[i] = dandelion.Item{Name: fmt.Sprintf("b%d", i), Data: payload}
			}
			return []dandelion.Set{{Name: "Out", Items: items}}, nil
		}})
		p.RegisterFunction(dandelion.ComputeFunc{Name: "Consume", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			var n int
			for _, s := range in {
				for _, it := range s.Items {
					n += len(it.Data)
				}
			}
			return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
				{Name: "n", Data: []byte(fmt.Sprintf("%d", n))},
			}}}, nil
		}})
		p.RegisterCompositionText(`
composition Pipe(In) => Result {
    Produce(x = all In) => (bufs = Out);
    Consume(x = all bufs) => (Result = Out);
}`)
		const iters = 40
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := p.Invoke(context.Background(), dandelion.Request{Composition: "Pipe", Inputs: map[string][]dandelion.Item{
				"In": {{Name: "seed", Data: []byte("x")}},
			}}); err != nil {
				t.Notes = append(t.Notes, err.Error())
				break
			}
		}
		elapsed := time.Since(start)
		mode := "copy (paper default)"
		if zc {
			mode = "zero-copy handoff"
		}
		t.Rows = append(t.Rows, []string{
			mode, fmt.Sprintf("%d", iters),
			f2(elapsed.Seconds() * 1000), f3(elapsed.Seconds() * 1000 / iters),
		})
		p.Shutdown()
	}
	for _, zc := range []bool{false, true} {
		ms, n, err := zeroCopyBatched(zc)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		mode := "copy batched (paper default)"
		if zc {
			mode = "zero-copy batched handoff"
		}
		t.Rows = append(t.Rows, []string{
			mode, fmt.Sprintf("%d", n), f2(ms), f3(ms / float64(n)),
		})
	}
	t.Notes = append(t.Notes, "2 MB moved per invocation; §6.1 sketches zero-copy as future work")
	t.Notes = append(t.Notes, "batched rows: 3-stage composition, 1 MiB handed between stages, InvokeBatch of 8")
	return t
}

// zeroCopyBatched drives the batched dispatch path through a 3-stage
// composition that moves 8x128 KiB items between every stage, and
// reports (total ms, invocations). With ZeroCopy off each stage
// boundary clones the megabyte several times (store gather, context
// install, function copy-in, output harvest); with it on the same
// boundaries are ownership moves, also across chunk boundaries when
// producing and consuming chunks land on different engines.
func zeroCopyBatched(zc bool) (float64, int, error) {
	p, err := dandelion.New(dandelion.Options{ZeroCopy: zc, ComputeEngines: 4})
	if err != nil {
		return 0, 0, err
	}
	defer p.Shutdown()
	payload := make([]byte, 128<<10)
	passthrough := func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
	}
	p.RegisterFunction(dandelion.ComputeFunc{Name: "ProduceB", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		items := make([]dandelion.Item, 8)
		for i := range items {
			items[i] = dandelion.Item{Name: fmt.Sprintf("b%d", i), Data: payload}
		}
		return []dandelion.Set{{Name: "Out", Items: items}}, nil
	}})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "RelayB", Go: passthrough})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "ConsumeB", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		var n int
		for _, s := range in {
			for _, it := range s.Items {
				n += len(it.Data)
			}
		}
		return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
			{Name: "n", Data: []byte(fmt.Sprintf("%d", n))},
		}}}, nil
	}})
	if _, err := p.RegisterCompositionText(`
composition PipeB(In) => Result {
    ProduceB(x = all In) => (bufs = Out);
    RelayB(x = all bufs) => (mid = Out);
    ConsumeB(x = all mid) => (Result = Out);
}`); err != nil {
		return 0, 0, err
	}
	const batch, iters = 8, 3
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	reqs := dandelion.BatchOf("", "PipeB", "In", payloads...)
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, res := range p.InvokeBatch(context.Background(), reqs) {
			if res.Err != nil {
				return 0, 0, res.Err
			}
		}
	}
	return time.Since(start).Seconds() * 1000, batch * iters, nil
}

// All runs every driver in figure order (quick settings) — the
// cmd/experiments default.
func All(quick bool) []Table {
	return []Table{
		Fig1(quick),
		Fig2(quick),
		Table1(),
		Fig5(quick),
		Fig6(quick),
		FigPhases(),
		Fig7(quick),
		Fig8(quick),
		Fig9(200_000),
		Text2SQLTable(60 * time.Millisecond),
		Fig10(quick),
		AblationWarmCache(),
		AblationStaticSplit(),
		AblationBinaryCache(),
		AblationZeroCopy(),
	}
}

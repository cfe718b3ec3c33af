package experiments

import (
	"fmt"
	"time"

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
	}
}

package faas

import (
	"dandelion/internal/sim"
)

// DHybridConfig parameterizes Dandelion-hybrid (§7.5): the same
// architecture and isolation backend as Dandelion, but compositions run
// as single "hybrid" functions that may open sockets, so one sandbox
// holds a scheduling slot across both compute and I/O.
type DHybridConfig struct {
	Cores int
	// TPC is threads per core: Cores×TPC hybrid sandboxes can be
	// runnable at once.
	TPC int
	// Pinned pins one sandbox per core: the core idles during the
	// sandbox's I/O waits (tpc=1,pin in Figure 7).
	Pinned bool
	// Profile-like costs: per-request sandbox creation (same KVM
	// backend as Dandelion) and context-switch penalty per extra
	// thread sharing a core.
	ColdStartMS     float64
	CSPenaltyPerTPC float64
}

// DHybrid returns the §7.5 configuration for the given threads-per-core
// setting.
func DHybrid(cores, tpc int, pinned bool) DHybridConfig {
	return DHybridConfig{
		Cores: cores, TPC: tpc, Pinned: pinned,
		ColdStartMS:     0.218, // X86 KVM backend cold start
		CSPenaltyPerTPC: 0.06,  // 6% compute inflation per extra thread
	}
}

// Hybrid simulates D-hybrid.
type Hybrid struct {
	cfg   DHybridConfig
	eng   *sim.Engine
	slots *sim.Resource // thread slots (Cores × TPC)
	cores *sim.Resource // physical cores

	Requests int
}

// NewHybrid builds the model.
func NewHybrid(eng *sim.Engine, cfg DHybridConfig) *Hybrid {
	if cfg.Cores <= 0 {
		cfg.Cores = 16
	}
	if cfg.TPC <= 0 {
		cfg.TPC = 1
	}
	slots := cfg.Cores * cfg.TPC
	if cfg.Pinned {
		slots = cfg.Cores
	}
	return &Hybrid{
		cfg:   cfg,
		eng:   eng,
		slots: sim.NewResource(eng, slots),
		cores: sim.NewResource(eng, cfg.Cores),
	}
}

// computeInflation models context-switch and cache interference when
// multiple threads share a core (unpinned).
func (h *Hybrid) computeInflation() float64 {
	if h.cfg.Pinned || h.cfg.TPC <= 1 {
		return 1
	}
	return 1 + h.cfg.CSPenaltyPerTPC*float64(h.cfg.TPC-1)
}

// Submit schedules one request. The request holds a thread slot for its
// entire lifetime; compute segments additionally occupy a core. Pinned
// mode holds the core through I/O waits too.
func (h *Hybrid) Submit(app App, done func(latencyMS float64, cold bool)) {
	start := h.eng.Now()
	h.Requests++
	inflate := h.computeInflation()
	finish := func() {
		h.slots.Release()
		done(sim.Duration(h.eng.Now()-start).Millis(), true)
	}
	h.slots.Acquire(func() {
		if h.cfg.Pinned {
			// Slot == core: hold it for the whole request, I/O included.
			h.cores.Acquire(func() {
				total := h.cfg.ColdStartMS + app.ComputeMS
				for k := 0; k < app.Phases; k++ {
					total += app.IOLatencyMS + (app.PhaseComputeMS+app.IOCPUMS)*inflate
				}
				h.eng.After(sim.Millis(total), func() {
					h.cores.Release()
					finish()
				})
			})
			return
		}
		if app.Phases <= 0 {
			service := h.cfg.ColdStartMS + app.ComputeMS*inflate
			h.cores.Use(sim.Millis(service), finish)
			return
		}
		var phase func(k int)
		phase = func(k int) {
			if k >= app.Phases {
				finish()
				return
			}
			// I/O: thread blocks (slot held), core free.
			h.eng.After(sim.Millis(app.IOLatencyMS), func() {
				slice := (app.PhaseComputeMS + app.IOCPUMS) * inflate
				h.cores.Use(sim.Millis(slice), func() { phase(k + 1) })
			})
		}
		h.cores.Use(sim.Millis(h.cfg.ColdStartMS), func() { phase(0) })
	})
}

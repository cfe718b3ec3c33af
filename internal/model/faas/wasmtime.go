package faas

import (
	"dandelion/internal/sim"
)

// WasmtimeConfig parameterizes the Spin/Wasmtime baseline: pooled
// instance allocation makes sandbox creation cheap, but generated code
// runs slower than native and the cooperative (tokio-style) scheduler
// lets compute-bound tasks hog worker threads (§7.6).
type WasmtimeConfig struct {
	Cores int
	// InstantiateMS is per-request instance setup from the pool.
	InstantiateMS float64
	// ComputeFactor is the Wasm-vs-native slowdown for compute.
	ComputeFactor float64
	// PerRequestOverheadMS covers the HTTP trigger and component glue.
	PerRequestOverheadMS float64
}

// Wasmtime returns the Spin default configuration: pooled allocation
// (1000 pre-instantiated slots), ~1.85× compute slowdown (saturating at
// 2600 vs Dandelion-KVM's 4800 RPS in §7.3).
func Wasmtime(cores int) WasmtimeConfig {
	return WasmtimeConfig{
		Cores:                cores,
		InstantiateMS:        0.18,
		ComputeFactor:        1.85,
		PerRequestOverheadMS: 0.35,
	}
}

// WT simulates the Spin/Wasmtime platform. Worker threads equal cores;
// tasks are scheduled cooperatively: once a compute task starts it runs
// to completion on its worker, and I/O-bound tasks re-enter the run
// queue after each await, queueing behind whatever is running.
type WT struct {
	cfg     WasmtimeConfig
	eng     *sim.Engine
	workers *sim.Resource

	Requests int
}

// NewWT builds the model on the engine.
func NewWT(eng *sim.Engine, cfg WasmtimeConfig) *WT {
	if cfg.Cores <= 0 {
		cfg.Cores = 16
	}
	if cfg.ComputeFactor <= 0 {
		cfg.ComputeFactor = 1
	}
	return &WT{cfg: cfg, eng: eng, workers: sim.NewResource(eng, cfg.Cores)}
}

// Submit schedules one request. Every request creates a sandbox (pooled
// instantiation), so cold is always true in the Dandelion sense but the
// cost is small.
func (w *WT) Submit(app App, done func(latencyMS float64, cold bool)) {
	start := w.eng.Now()
	w.Requests++
	finish := func() {
		done(sim.Duration(w.eng.Now()-start).Millis(), true)
	}
	if app.Phases <= 0 {
		service := w.cfg.InstantiateMS + w.cfg.PerRequestOverheadMS + app.ComputeMS*w.cfg.ComputeFactor
		w.workers.Use(sim.Millis(service), finish)
		return
	}
	// I/O-bound task: each phase's compute slice must re-queue on the
	// cooperative scheduler — this is where compute-heavy neighbours
	// inflate tail latency (§7.6).
	var phase func(k int)
	phase = func(k int) {
		if k >= app.Phases {
			finish()
			return
		}
		w.eng.After(sim.Millis(app.IOLatencyMS), func() {
			slice := (app.PhaseComputeMS + app.IOCPUMS) * w.cfg.ComputeFactor
			w.workers.Use(sim.Millis(slice), func() { phase(k + 1) })
		})
	}
	w.workers.Use(sim.Millis(w.cfg.InstantiateMS+w.cfg.PerRequestOverheadMS), func() { phase(0) })
}

package faas

import (
	"dandelion/internal/sim"
)

// MicroVMConfig parameterizes the Firecracker/gVisor-style baseline: a
// relay routes requests to hot sandboxes when available and boots a new
// sandbox otherwise.
type MicroVMConfig struct {
	// Cores is the node's physical core count.
	Cores int
	// HotFraction is the probability a request finds a pre-provisioned
	// warm sandbox (the paper uses 97% per the Azure-trace Knative
	// measurement; 0 models pure sandbox-creation sweeps).
	HotFraction float64
	// BootLatencyMS is wall-clock sandbox creation latency on the
	// critical path (Firecracker: >150 ms full boot, ~10 ms snapshot
	// restore; gVisor sits between).
	BootLatencyMS float64
	// BootCPUMS is the CPU consumed on a core during creation.
	BootCPUMS float64
	// CreationConcurrency caps concurrent sandbox creations (snapshot
	// restore is bottlenecked by serialized demand paging and network
	// re-establishment — §2.3's ≥8 ms — limiting FC snapshots to
	// ~120 RPS).
	CreationConcurrency int
	// PerRequestOverheadMS is the virtualization + relay + vsock data
	// path cost added to every request, hot or cold.
	PerRequestOverheadMS float64
	// ComputeFactor scales guest compute relative to native.
	ComputeFactor float64
	// VMMemoryMB is committed per sandbox (function memory + guest OS
	// footprint), used by the Azure memory experiment.
	VMMemoryMB int
}

// Firecracker returns the MicroVM baseline configuration (full boot).
func Firecracker(cores int, hotFraction float64) MicroVMConfig {
	return MicroVMConfig{
		Cores:                cores,
		HotFraction:          hotFraction,
		BootLatencyMS:        155,
		BootCPUMS:            110,
		CreationConcurrency:  2,
		PerRequestOverheadMS: 1.2,
		ComputeFactor:        1.0,
		VMMemoryMB:           160,
	}
}

// FirecrackerSnapshot returns the snapshot-restore configuration.
func FirecrackerSnapshot(cores int, hotFraction float64) MicroVMConfig {
	c := Firecracker(cores, hotFraction)
	c.BootLatencyMS = 10.5
	c.BootCPUMS = 8.3
	c.CreationConcurrency = 1
	return c
}

// GVisor returns the hardened-container configuration: creation is
// cheaper than a full MicroVM boot but slower than snapshot restore,
// and the syscall-interception data path costs more per request.
func GVisor(cores int, hotFraction float64) MicroVMConfig {
	return MicroVMConfig{
		Cores:                cores,
		HotFraction:          hotFraction,
		BootLatencyMS:        32,
		BootCPUMS:            28,
		CreationConcurrency:  1,
		PerRequestOverheadMS: 1.8,
		ComputeFactor:        1.05,
		VMMemoryMB:           140,
	}
}

// MicroVM simulates the relay + sandbox pool baseline.
type MicroVM struct {
	cfg      MicroVMConfig
	eng      *sim.Engine
	cores    *sim.Resource
	creation *sim.Resource

	ColdStarts int
	Requests   int
}

// NewMicroVM builds the model on the engine.
func NewMicroVM(eng *sim.Engine, cfg MicroVMConfig) *MicroVM {
	if cfg.Cores <= 0 {
		cfg.Cores = 16
	}
	if cfg.CreationConcurrency <= 0 {
		cfg.CreationConcurrency = 1
	}
	if cfg.ComputeFactor <= 0 {
		cfg.ComputeFactor = 1
	}
	return &MicroVM{
		cfg:      cfg,
		eng:      eng,
		cores:    sim.NewResource(eng, cfg.Cores),
		creation: sim.NewResource(eng, cfg.CreationConcurrency),
	}
}

// Submit schedules one request: hot requests go straight to a core;
// cold requests first pass the creation bottleneck, burn creation CPU,
// and wait out the boot latency.
//
// Phase applications (§7.4) map to a *chain* of function invocations on
// this platform — each fetch+compute phase is its own sandboxed
// function, so a fully cold chain boots one sandbox per phase (this is
// what makes FC-cold 4.6× slower than Dandelion at 16 phases).
func (m *MicroVM) Submit(app App, done func(latencyMS float64, cold bool)) {
	start := m.eng.Now()
	m.Requests++
	if app.Phases > 0 {
		anyCold := false
		var phase func(k int)
		phase = func(k int) {
			if k >= app.Phases {
				done(sim.Duration(m.eng.Now()-start).Millis(), anyCold)
				return
			}
			cold := m.eng.Rand().Float64() >= m.cfg.HotFraction
			if cold {
				anyCold = true
				m.ColdStarts++
			}
			m.maybeBoot(cold, func() {
				// In-guest invocation: relay + virtualization overhead,
				// then the syscall-driven fetch (core released during
				// the wait), then the phase compute.
				m.cores.Use(sim.Millis(m.cfg.PerRequestOverheadMS), func() {
					m.eng.After(sim.Millis(app.IOLatencyMS), func() {
						service := app.PhaseComputeMS*m.cfg.ComputeFactor + app.IOCPUMS
						m.cores.Use(sim.Millis(service), func() { phase(k + 1) })
					})
				})
			})
		}
		phase(0)
		return
	}
	cold := m.eng.Rand().Float64() >= m.cfg.HotFraction
	if cold {
		m.ColdStarts++
	}
	m.maybeBoot(cold, func() {
		service := app.ComputeMS*m.cfg.ComputeFactor + m.cfg.PerRequestOverheadMS
		m.cores.Use(sim.Millis(service), func() {
			done(sim.Duration(m.eng.Now()-start).Millis(), cold)
		})
	})
}

// maybeBoot runs next immediately for hot invocations; cold invocations
// first pass the creation bottleneck, burn creation CPU, and wait out
// the boot latency. The serialized part (the creation token) is the
// restore/paging work; the residual boot wait overlaps with the next
// creation. With 8.3 ms of serialized restore work this caps snapshot
// restores at the paper's ~120 RPS.
func (m *MicroVM) maybeBoot(cold bool, next func()) {
	if !cold {
		next()
		return
	}
	m.creation.Acquire(func() {
		m.cores.Use(sim.Millis(m.cfg.BootCPUMS), func() {
			m.creation.Release()
			wait := m.cfg.BootLatencyMS - m.cfg.BootCPUMS
			if wait < 0 {
				wait = 0
			}
			m.eng.After(sim.Millis(wait), next)
		})
	})
}

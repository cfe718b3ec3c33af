package faas

import (
	"dandelion/internal/autoscale"
	"dandelion/internal/model/load"
	"dandelion/internal/sim"
	"dandelion/internal/trace"
)

// AzureResult is the outcome of one Azure-trace replay (Figures 1 and
// 10): committed and active memory over time plus end-to-end latency.
type AzureResult struct {
	// CommittedMB samples total committed memory (MB) every interval.
	CommittedMB *load.TimeSeries
	// ActiveMB samples memory of sandboxes actively serving requests.
	ActiveMB *load.TimeSeries
	// LatencyMS is per-invocation end-to-end latency.
	LatencyMS *load.Sample
	// ColdFraction of invocations that cold-started.
	ColdFraction float64
	Invocations  int
}

// guestOSOverheadMB is the extra committed memory per MicroVM for the
// guest kernel and rootfs (§2.3: running a guest OS inside each sandbox
// adds to the footprint).
const guestOSOverheadMB = 32

// RunAzureKnative replays the trace against the Firecracker + Knative
// autoscaling baseline and accounts committed memory as (warm replicas)
// × (function memory + guest OS overhead).
func RunAzureKnative(tr trace.Trace, cfg MicroVMConfig, asCfg autoscale.Config, seed int64) AzureResult {
	eng := sim.NewEngine(seed)
	res := AzureResult{
		CommittedMB: &load.TimeSeries{},
		ActiveMB:    &load.TimeSeries{},
		LatencyMS:   &load.Sample{},
	}
	scalers := make(map[string]*autoscale.FnScaler, len(tr.Functions))
	mem := make(map[string]int, len(tr.Functions))
	for i := range tr.Functions {
		f := &tr.Functions[i]
		scalers[f.ID] = autoscale.NewFnScaler(asCfg)
		mem[f.ID] = f.MemMB
	}
	cold := 0

	tr.Replay(eng, func(inv trace.Invocation) {
		res.Invocations++
		now := float64(eng.Now())
		isCold := scalers[inv.Fn.ID].Arrive(now)
		lat := inv.DurationMS + cfg.PerRequestOverheadMS
		if isCold {
			cold++
			lat += cfg.BootLatencyMS
		}
		id := inv.Fn.ID
		eng.After(sim.Millis(lat), func() {
			scalers[id].Done(float64(eng.Now()))
			res.LatencyMS.Add(lat)
		})
	})

	// Periodic autoscaler ticks + memory sampling.
	const tick = 2.0
	var sampler func()
	sampler = func() {
		now := float64(eng.Now())
		var committed, active float64
		for id, s := range scalers {
			s.Tick(now)
			perVM := float64(mem[id] + guestOSOverheadMB)
			committed += float64(s.Replicas()) * perVM
			serving := s.Concurrency()
			if serving > s.Replicas() {
				serving = s.Replicas()
			}
			active += float64(serving) * perVM
		}
		res.CommittedMB.Append(now, committed)
		res.ActiveMB.Append(now, active)
		if now < tr.DurationS {
			eng.After(sim.Seconds(tick), sampler)
		}
	}
	eng.After(sim.Seconds(tick), sampler)

	eng.RunAll()
	if res.Invocations > 0 {
		res.ColdFraction = float64(cold) / float64(res.Invocations)
	}
	return res
}

// RunAzureDandelion replays the trace against Dandelion: every request
// cold-starts a lightweight sandbox, and memory is committed only while
// the request runs (a fresh context per request, §7.8).
func RunAzureDandelion(tr trace.Trace, cfg DandelionConfig, seed int64) AzureResult {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine(seed)
	res := AzureResult{
		CommittedMB: &load.TimeSeries{},
		ActiveMB:    &load.TimeSeries{},
		LatencyMS:   &load.Sample{},
	}
	// Track live context memory by function.
	liveMB := 0.0
	coldUS := cfg.Profile.ColdStartUS(cfg.Cached)

	tr.Replay(eng, func(inv trace.Invocation) {
		res.Invocations++
		memMB := float64(inv.Fn.MemMB)
		liveMB += memMB
		lat := inv.DurationMS + coldUS/1000
		eng.After(sim.Millis(lat), func() {
			liveMB -= memMB
			res.LatencyMS.Add(lat)
		})
	})

	const tick = 2.0
	var sampler func()
	sampler = func() {
		now := float64(eng.Now())
		res.CommittedMB.Append(now, liveMB)
		res.ActiveMB.Append(now, liveMB)
		if now < tr.DurationS {
			eng.After(sim.Seconds(tick), sampler)
		}
	}
	eng.After(sim.Seconds(tick), sampler)

	eng.RunAll()
	res.ColdFraction = 1.0 // every request cold-starts, by design
	return res
}

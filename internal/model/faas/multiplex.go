package faas

import (
	"dandelion/internal/model/load"
	"dandelion/internal/sim"
)

// UnloadedLatency measures a single request's end-to-end latency on an
// otherwise idle platform (the §7.2/§7.4 unloaded measurements). It
// submits a few sequential requests and reports the median.
func UnloadedLatency(mk func(*sim.Engine) Platform, app App, seed int64) float64 {
	eng := sim.NewEngine(seed)
	p := mk(eng)
	var lat load.Sample
	var submit func(k int)
	submit = func(k int) {
		if k >= 9 {
			return
		}
		p.Submit(app, func(ms float64, _ bool) {
			lat.Add(ms)
			eng.After(sim.Millis(5), func() { submit(k + 1) })
		})
	}
	submit(0)
	eng.RunAll()
	return lat.Median()
}

// MultiplexResult is one application's outcome in the §7.6 mixed-
// workload experiment.
type MultiplexResult struct {
	App       string
	Summary   load.Summary
	Completed int
}

// RunMultiplex drives two applications with bursty arrival patterns on
// one platform (Figure 8) and reports per-app latency statistics.
func RunMultiplex(mk func(*sim.Engine) Platform, apps [2]App, patterns [2]load.Pattern, seed int64) [2]MultiplexResult {
	eng := sim.NewEngine(seed)
	p := mk(eng)
	recs := [2]*load.Recorder{load.NewRecorder(), load.NewRecorder()}
	for i := 0; i < 2; i++ {
		i := i
		load.GeneratePattern(eng, patterns[i], func(int) {
			p.Submit(apps[i], func(lat float64, cold bool) { recs[i].Record(lat, cold) })
		})
	}
	horizon := patterns[0].Duration()
	if d := patterns[1].Duration(); d > horizon {
		horizon = d
	}
	eng.Run(sim.Time(horizon + 30))
	var out [2]MultiplexResult
	for i := 0; i < 2; i++ {
		out[i] = MultiplexResult{
			App:       apps[i].Name,
			Summary:   recs[i].Latency.Summarize(),
			Completed: recs[i].Completed,
		}
	}
	return out
}

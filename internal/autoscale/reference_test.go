package autoscale

import "math"

// The reference: the walked-log scaler FnScaler replaced, kept verbatim
// (names aside) as the executable spec the differential test checks the
// constant-state implementation against. It remembers every arrival,
// completion and tick of the last stable window and walks that log on
// each Tick. Its one deliberate difference from what it specifies: it
// trusts its clock, so the test feeds it the clamped times FnScaler
// uses internally.

type refScaler struct {
	cfg Config

	replicas     int
	concurrency  int     // in-flight requests
	lastDecrease float64 // last time a scale-down happened or was blocked

	// Concurrency-time accumulators for windowed averages.
	samples []refSample
}

type refSample struct {
	t    float64
	conc int
}

func newRefScaler(cfg Config) *refScaler {
	return &refScaler{cfg: cfg.withDefaults()}
}

func (s *refScaler) Replicas() int { return s.replicas }

func (s *refScaler) Arrive(now float64) (cold bool) {
	s.concurrency++
	s.observe(now)
	capacity := float64(s.replicas) * s.cfg.TargetConcurrency
	if float64(s.concurrency) > capacity {
		s.replicas++
		cold = true
	}
	return cold
}

func (s *refScaler) Done(now float64) {
	if s.concurrency > 0 {
		s.concurrency--
	}
	s.observe(now)
}

func (s *refScaler) Tick(now float64) {
	s.observe(now)
	stableAvg := s.windowAvg(now, s.cfg.StableWindowS)
	panicAvg := s.windowAvg(now, s.cfg.PanicWindowS)

	desired := int(math.Ceil(stableAvg / s.cfg.TargetConcurrency))
	panicDesired := int(math.Ceil(panicAvg / s.cfg.TargetConcurrency))
	// Panic mode: bursts hold the higher of the two.
	if float64(panicDesired) >= s.cfg.PanicThreshold*math.Max(1, float64(desired)) {
		desired = panicDesired
	}
	if s.concurrency > 0 && desired < 1 {
		desired = 1
	}

	switch {
	case desired > s.replicas:
		s.replicas = desired
		s.lastDecrease = now
	case desired < s.replicas:
		// Only scale down after the delay, and never below in-flight
		// demand.
		if now-s.lastDecrease >= s.cfg.ScaleDownDelayS {
			floor := int(math.Ceil(float64(s.concurrency) / s.cfg.TargetConcurrency))
			if desired < floor {
				desired = floor
			}
			if desired < s.replicas {
				s.replicas = desired
				s.lastDecrease = now
			}
		}
	default:
		s.lastDecrease = now
	}
	s.trim(now)
}

// observe appends a concurrency sample: the level from now onward, so
// callers record it after the event has changed it.
func (s *refScaler) observe(now float64) {
	s.samples = append(s.samples, refSample{t: now, conc: s.concurrency})
}

// windowAvg computes the time-weighted average concurrency over the
// trailing window.
func (s *refScaler) windowAvg(now, window float64) float64 {
	start := now - window
	var area float64
	prevT := start
	prevC := 0
	// Find the concurrency level at window start: last sample <= start.
	for _, sm := range s.samples {
		if sm.t <= start {
			prevC = sm.conc
			continue
		}
		if sm.t > now {
			break
		}
		area += float64(prevC) * (sm.t - prevT)
		prevT, prevC = sm.t, sm.conc
	}
	area += float64(prevC) * (now - prevT)
	if window <= 0 {
		return 0
	}
	return area / window
}

// trim discards samples older than the stable window.
func (s *refScaler) trim(now float64) {
	cutoff := now - s.cfg.StableWindowS - 1
	i := 0
	for i < len(s.samples)-1 && s.samples[i+1].t < cutoff {
		i++
	}
	if i > 0 {
		s.samples = append(s.samples[:0], s.samples[i:]...)
	}
}

// refAdmission is Admission as it drove the walked-log scaler: n
// arrivals or completions are n single events, each followed by a Tick.
type refAdmission struct {
	cfg      AdmissionConfig
	scaler   *refScaler
	avgBytes float64
}

func newRefAdmission(cfg AdmissionConfig) *refAdmission {
	cfg = cfg.withDefaults()
	return &refAdmission{cfg: cfg, scaler: newRefScaler(cfg.Scaler)}
}

func (a *refAdmission) AdmitBytes(n int, bytes int64, now float64) int {
	for i := 0; i < n; i++ {
		a.scaler.Arrive(now)
	}
	if n > 0 && bytes > 0 {
		per := float64(bytes) / float64(n)
		if a.avgBytes == 0 {
			a.avgBytes = per
		} else {
			a.avgBytes += byteAlpha * (per - a.avgBytes)
		}
	}
	a.scaler.Tick(now)
	return a.window()
}

func (a *refAdmission) Finish(n int, now float64) {
	for i := 0; i < n; i++ {
		a.scaler.Done(now)
	}
	a.scaler.Tick(now)
}

func (a *refAdmission) Window(now float64) int {
	a.scaler.Tick(now)
	return a.window()
}

func (a *refAdmission) window() int {
	cfg := a.scaler.cfg
	w := int(math.Ceil(float64(a.scaler.Replicas()) * cfg.TargetConcurrency))
	if w < a.cfg.MinBatch {
		w = a.cfg.MinBatch
	}
	if w > a.cfg.MaxBatch {
		w = a.cfg.MaxBatch
	}
	if a.avgBytes > 0 {
		if byBytes := int(float64(a.cfg.MaxWindowBytes) / a.avgBytes); byBytes < w {
			w = byBytes
			if w < 1 {
				w = 1
			}
		}
	}
	return w
}

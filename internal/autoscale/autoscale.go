// Package autoscale implements a Knative-KPA-style autoscaler: the
// baseline policy that provisions warm sandboxes ahead of demand, whose
// committed-memory cost Figures 1 and 10 of the paper quantify.
//
// Per function, the autoscaler tracks concurrency over a stable window
// (and a short panic window for bursts) and sets the desired replica
// count to ceil(avgConcurrency / target). Replicas scale up immediately
// (a cold start for the triggering request) and scale down only after
// the stable window has justified it continuously for the scale-down
// delay, mimicking Knative's conservative down-scaling that keeps idle
// sandboxes in memory.
//
// The window averages cost O(1) however long or fast a function has
// been invoked, and a scaler's state has a fixed size. It keeps the
// running concurrency-time integral I(t) and checkpoints it on a fixed
// time grid, in a ring covering the longer window. An average over W is
// (I(now) − I(now−W)) / W, with I(now−W) interpolated linearly between
// the two checkpoints around now−W. The grid step g is PanicWindowS/120
// (50 ms at the defaults: a 1202-slot ring, 9.6 KiB), coarsened only
// where the ring would otherwise exceed 4096 slots. The interpolation is
// exact when no event falls strictly inside the grid cell holding
// now−W; otherwise the average is off by at most (cmax−cmin)·g/(4W),
// where cmin and cmax bound the concurrency inside that cell. That is
// ≤ 2.1e-4 per unit of concurrency swing on the default 60 s window and
// ≤ 2.1e-3 on the 6 s panic window. Where such an error carries an
// average across an integer, ceil moves the desired count by one; the
// disagreement with an exact average then lasts until the next
// scale-down decision. differential_test.go checks both bounds against
// the walked-log scaler this design replaced, kept in reference_test.go.
package autoscale

import (
	"math"
)

// Config parameterizes the autoscaler; zero values select Knative-like
// defaults.
type Config struct {
	// TargetConcurrency per replica (default 1, container-concurrency
	// style).
	TargetConcurrency float64
	// StableWindowS is the averaging window (default 60s).
	StableWindowS float64
	// PanicWindowS is the burst window (default 6s).
	PanicWindowS float64
	// PanicThreshold multiplies desired replicas to enter panic mode
	// (default 2.0: 200% of capacity).
	PanicThreshold float64
	// ScaleDownDelayS holds replicas after the window justifies
	// removal (default 30s).
	ScaleDownDelayS float64
}

func (c Config) withDefaults() Config {
	if c.TargetConcurrency <= 0 {
		c.TargetConcurrency = 1
	}
	if c.StableWindowS <= 0 {
		c.StableWindowS = 60
	}
	if c.PanicWindowS <= 0 {
		c.PanicWindowS = 6
	}
	if c.PanicThreshold <= 0 {
		c.PanicThreshold = 2
	}
	if c.ScaleDownDelayS <= 0 {
		c.ScaleDownDelayS = 30
	}
	return c
}

// The checkpoint grid: stepsPerPanicWindow grid steps per panic window,
// unless covering the longer window would then take more than
// maxCheckpoints slots.
const (
	stepsPerPanicWindow = 120
	maxCheckpoints      = 4096
)

// ceilSlack is subtracted before the ceil that turns an average into a
// replica count. The integral's difference carries rounding noise far
// below it, and without the slack an exactly integral average could
// read as 2.0000000000001 and provision a phantom replica.
const ceilSlack = 1e-6

// FnScaler autoscales one function. Callers drive it with Arrive/Done
// events and periodic Tick calls carrying the simulation clock.
type FnScaler struct {
	cfg Config

	replicas     int
	concurrency  int     // in-flight requests
	lastDecrease float64 // last time a scale-down happened or was blocked

	// The concurrency-time integral: area is its value at lastT, the
	// latest event. checkpoints[slot(k)] holds its value at grid time
	// k·step for the len(checkpoints) grid points up to lastK, the last
	// one not after lastT. Before the first event (started false) the
	// integral is 0, as the zeroed ring says.
	started     bool
	lastT       float64
	area        float64
	step        float64
	lastK       int64
	checkpoints []float64
}

// NewFnScaler creates a scaler starting at zero replicas.
func NewFnScaler(cfg Config) *FnScaler {
	cfg = cfg.withDefaults()
	span := math.Max(cfg.StableWindowS, cfg.PanicWindowS)
	step := cfg.PanicWindowS / stepsPerPanicWindow
	if span/step > maxCheckpoints {
		step = span / maxCheckpoints
	}
	// Two spare slots: the checkpoint below now−span and the one at or
	// below now.
	slots := int(math.Ceil(span/step)) + 2
	return &FnScaler{cfg: cfg, step: step, checkpoints: make([]float64, slots)}
}

// Replicas reports the current warm replica count.
func (s *FnScaler) Replicas() int { return s.replicas }

// Concurrency reports in-flight requests.
func (s *FnScaler) Concurrency() int { return s.concurrency }

// Arrive records a request arrival at time now (seconds). It reports
// whether the request is a cold start: no replica with spare capacity
// is available, so one must be created on the critical path (the
// autoscaler also scales up to cover it).
func (s *FnScaler) Arrive(now float64) (cold bool) {
	return s.arrive(now, 1) > 0
}

// arrive records n arrivals at time now as one event and returns how
// many were cold starts: the replicas grow exactly as n Arrive calls
// would grow them, each arrival that finds concurrency above capacity
// adding one.
func (s *FnScaler) arrive(now float64, n int) (cold int) {
	s.advance(now)
	for i := 0; i < n; i++ {
		s.concurrency++
		if float64(s.concurrency) > float64(s.replicas)*s.cfg.TargetConcurrency {
			s.replicas++
			cold++
		}
	}
	return cold
}

// Done records a request completion at time now.
func (s *FnScaler) Done(now float64) {
	s.done(now, 1)
}

// done records n completions at time now as one event.
func (s *FnScaler) done(now float64, n int) {
	s.advance(now)
	if n > 0 {
		s.concurrency -= min(n, s.concurrency)
	}
}

// Tick runs one autoscaler evaluation at time now, scaling down when the
// windowed average justifies it.
func (s *FnScaler) Tick(now float64) {
	now = s.advance(now)
	stableAvg := s.windowAvg(now, s.cfg.StableWindowS)
	panicAvg := s.windowAvg(now, s.cfg.PanicWindowS)

	desired := int(math.Ceil(stableAvg/s.cfg.TargetConcurrency - ceilSlack))
	panicDesired := int(math.Ceil(panicAvg/s.cfg.TargetConcurrency - ceilSlack))
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
}

// advance carries the integral forward to now and returns the time the
// event is recorded at. A now behind the latest event is clamped to it:
// callers read the clock before taking the admission lock, so racing
// callers arrive slightly out of order, and time must not run
// backwards inside the scaler.
func (s *FnScaler) advance(now float64) float64 {
	if !s.started {
		s.started = true
		s.lastT, s.lastK = now, s.gridIndex(now)
		return now
	}
	if now <= s.lastT {
		return s.lastT
	}
	c := float64(s.concurrency)
	if k := s.gridIndex(now); k > s.lastK {
		// Checkpoint every grid point passed; after an idle gap longer
		// than the ring, only the last ring's worth.
		from := s.lastK + 1
		if n := int64(len(s.checkpoints)); k-from >= n {
			from = k - n + 1
		}
		for j := from; j <= k; j++ {
			s.checkpoints[s.slot(j)] = s.area + c*(float64(j)*s.step-s.lastT)
		}
		s.lastK = k
	}
	s.area += c * (now - s.lastT)
	s.lastT = now
	return now
}

// windowAvg computes the time-weighted average concurrency over the
// trailing window.
func (s *FnScaler) windowAvg(now, window float64) float64 {
	if window <= 0 {
		return 0
	}
	return (s.integral(now) - s.integral(now-window)) / window
}

// integral returns the concurrency-time integral up to t, for a t no
// further back than the ring reaches: exact from the latest event on,
// interpolated between checkpoints before it.
func (s *FnScaler) integral(t float64) float64 {
	if t >= s.lastT {
		return s.area + float64(s.concurrency)*(t-s.lastT)
	}
	k := s.gridIndex(t)
	lo, loT := s.checkpoints[s.slot(k)], float64(k)*s.step
	hi, hiT := s.area, s.lastT
	if k < s.lastK {
		hi, hiT = s.checkpoints[s.slot(k+1)], float64(k+1)*s.step
	}
	if hiT <= loT {
		return lo
	}
	return lo + (hi-lo)*(t-loT)/(hiT-loT)
}

func (s *FnScaler) gridIndex(t float64) int64 { return int64(math.Floor(t / s.step)) }

func (s *FnScaler) slot(k int64) int {
	i := int(k % int64(len(s.checkpoints)))
	if i < 0 {
		i += len(s.checkpoints)
	}
	return i
}

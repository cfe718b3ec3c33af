package autoscale

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The differential test: FnScaler and Admission against the walked-log
// reference (reference_test.go) after every event of seeded traces.
//
// Written tolerance. The window averages agree to 1e-9 on grid-aligned
// traces (every event on a checkpoint). Off the grid, an average over W
// may differ from the exact one by at most (cmax−cmin)·g/(4W) + 1e-9,
// where g is the grid step and cmin, cmax bound the reference's
// concurrency inside the grid cell holding now−W: the integral is
// interpolated linearly across that one cell, and a step function's
// integral leaves its chord by at most a quarter of the cell times the
// swing.
//
// Replicas are not promised equal. The two scalers' desired counts can
// differ only on a Tick where one of the reference's averages (divided
// by TargetConcurrency) lies within that tolerance plus ceilSlack of an
// integer: only there can ceil — and with it the panic-threshold
// comparison of two ceils — come out differently. The test checks
// where and for how long:
//   - every divergence of the scalers' state (replicas, or the time of
//     the last scale decision) starts on such a boundary tick;
//   - a disagreement in Replicas does not survive the next scale-down
//     decision: after any other Tick at which both scalers were free to
//     scale down (ScaleDownDelayS since each one's last decision), the
//     Replicas agree. Until then it can persist, and it can move: two
//     scalers whose last decisions differ scale down at different ticks,
//     each to the in-flight floor of its own tick.
//
// Observed on the default configuration over ten 20k-event traces: the
// averages agree to 2e-10 on the grid; off it the largest gaps are
// 9.2e-3 (stable) and 8.2e-2 (panic), where a 64-request burst drains
// inside one grid cell; Replicas differ on 0.009 % of grid-aligned steps
// (integral averages the two round differently) and on none off the
// grid.

const (
	evArrive = iota
	evDone
	evTick
)

type traceEvent struct {
	t     float64
	kind  int
	n     int
	bytes int64
}

// genTrace builds a seeded trace of events: Poisson stretches at rates
// from 2 to 2000 events/s, bursts of same-instant n-arrival events
// drained in n-completion events, idle gaps longer than the stable
// window, same-instant ties and small backward steps of the kind racing
// callers produce. With unit > 0 every time is a multiple of unit.
func genTrace(rng *rand.Rand, events int, unit float64) []traceEvent {
	var out []traceEvent
	now, conc := 0.0, 0
	at := func(t float64) float64 {
		if unit > 0 {
			return math.Round(t/unit) * unit
		}
		return t
	}
	emit := func(t float64, kind, n int) {
		ev := traceEvent{t: at(t), kind: kind, n: n}
		if kind == evArrive && rng.Intn(4) > 0 {
			ev.bytes = int64(n) * rng.Int63n(2<<20)
		}
		out = append(out, ev)
		switch kind {
		case evArrive:
			conc += n
		case evDone:
			conc -= min(n, conc)
		}
	}
	for len(out) < events {
		switch p := rng.Float64(); {
		case p < 0.70: // a Poisson stretch
			rate := []float64{2, 20, 200, 2000}[rng.Intn(4)]
			for i, m := 0, 20+rng.Intn(200); i < m; i++ {
				now += rng.ExpFloat64() / rate
				switch q := rng.Float64(); {
				case q < 0.45:
					emit(now, evArrive, 1)
				case q < 0.9:
					emit(now, evDone, 1)
				default:
					emit(now, evTick, 0)
				}
			}
		case p < 0.85: // a burst, drained in chunks
			emit(now, evArrive, 2+rng.Intn(63))
			emit(now, evTick, 0)
			for conc > 0 && rng.Intn(8) > 0 {
				now += rng.ExpFloat64() / 50
				emit(now, evDone, 1+rng.Intn(8))
				emit(now, evTick, 0)
			}
		case p < 0.90: // an idle gap longer than the stable window
			now += 60 + rng.Float64()*140
			emit(now, evTick, 0)
		case p < 0.95: // same-instant ties
			for i := 0; i < 2+rng.Intn(4); i++ {
				emit(now, rng.Intn(3), 1+rng.Intn(3))
			}
		default: // small backward steps
			for i := 0; i < 1+rng.Intn(3); i++ {
				emit(now-rng.Float64()*0.005, rng.Intn(3), 1+rng.Intn(3))
			}
		}
	}
	return out
}

// cellSwing reports the range of the reference's concurrency inside the
// grid cell holding t.
func cellSwing(ref *refScaler, t, step float64) float64 {
	lo := math.Floor(t/step) * step
	hi := lo + step
	first := sort.Search(len(ref.samples), func(i int) bool { return ref.samples[i].t > lo })
	level := 0
	if first > 0 {
		level = ref.samples[first-1].conc
	}
	cmin, cmax := math.MaxInt, math.MinInt
	for _, sm := range ref.samples[first:] {
		if sm.t >= hi {
			break
		}
		cmin, cmax = min(cmin, sm.conc), max(cmax, sm.conc)
	}
	cmin, cmax = min(cmin, level), max(cmax, level)
	return float64(cmax - cmin)
}

// nearInteger reports whether x lies within d of an integer.
func nearInteger(x, d float64) bool { return math.Abs(x-math.Round(x)) <= d }

// diffStats is what one differential run observed.
type diffStats struct {
	steps, replicaMismatches int
	maxErr                   [2]float64 // stable, panic
	boundaryTicks            int
}

// differ checks one scaler against the reference after every event.
type differ struct {
	t    *testing.T
	name string
	grid bool
	s    *FnScaler
	ref  *refScaler

	clock    float64 // the clamped clock both scalers record at
	diverged bool
	st       diffStats
}

func newDiffer(t *testing.T, name string, grid bool, s *FnScaler, ref *refScaler) *differ {
	return &differ{t: t, name: name, grid: grid, s: s, ref: ref, clock: math.Inf(-1)}
}

// at returns the time the scalers record an event stamped t at.
func (d *differ) at(t float64) float64 {
	d.clock = math.Max(d.clock, t)
	return d.clock
}

// free reports whether both scalers may take a scale-down decision at
// now: the delay since each one's last decision has passed.
func (d *differ) free(now float64) bool {
	delay := d.s.cfg.ScaleDownDelayS
	return now-d.s.lastDecrease >= delay && now-d.ref.lastDecrease >= delay
}

// check compares the two scalers after event i at the clamped time now;
// tick says the event ran a Tick, free that both scalers were free to
// scale down before it.
func (d *differ) check(i int, now float64, tick, free bool) {
	t, s, ref, cfg := d.t, d.s, d.ref, d.s.cfg
	d.st.steps++
	boundary := false
	for w, window := range []float64{cfg.StableWindowS, cfg.PanicWindowS} {
		got, want := s.windowAvg(now, window), ref.windowAvg(now, window)
		tol := 1e-9
		if !d.grid {
			tol += cellSwing(ref, now-window, s.step) * s.step / (4 * window)
		}
		diff := math.Abs(got - want)
		if diff > tol {
			t.Fatalf("%s event %d t=%v: %gs average = %v, reference %v (|Δ| %g > tolerance %g)",
				d.name, i, now, window, got, want, diff, tol)
		}
		d.st.maxErr[w] = math.Max(d.st.maxErr[w], diff)
		if nearInteger(want/cfg.TargetConcurrency, tol/cfg.TargetConcurrency+ceilSlack) {
			boundary = true
		}
	}
	if tick && boundary {
		d.st.boundaryTicks++
	}
	diverged := s.replicas != ref.replicas || s.lastDecrease != ref.lastDecrease
	if diverged && !d.diverged && !(tick && boundary) {
		t.Fatalf("%s event %d t=%v: state diverged off a boundary tick: replicas %d vs %d, last decision %v vs %v",
			d.name, i, now, s.replicas, ref.replicas, s.lastDecrease, ref.lastDecrease)
	}
	d.diverged = diverged
	if s.Replicas() != ref.Replicas() {
		d.st.replicaMismatches++
		if tick && free && !boundary {
			t.Fatalf("%s event %d t=%v: replicas %d vs reference %d survived a tick where both could scale down",
				d.name, i, now, s.Replicas(), ref.Replicas())
		}
	}
	if s.Concurrency() != ref.concurrency {
		t.Fatalf("%s event %d: concurrency %d vs reference %d", d.name, i, s.Concurrency(), ref.concurrency)
	}
}

// diffScaler replays tr through an FnScaler (n-arrival and n-completion
// events as one call each) and through the reference (n single calls).
func diffScaler(t *testing.T, name string, cfg Config, tr []traceEvent, grid bool) diffStats {
	d := newDiffer(t, name, grid, NewFnScaler(cfg), newRefScaler(cfg))
	for i, ev := range tr {
		now := d.at(ev.t)
		free := d.free(now)
		switch ev.kind {
		case evArrive:
			cold := d.s.arrive(ev.t, ev.n)
			refCold := 0
			for j := 0; j < ev.n; j++ {
				if d.ref.Arrive(now) {
					refCold++
				}
			}
			if !d.diverged && cold != refCold {
				t.Fatalf("%s event %d: %d-arrival event had %d cold starts, %d single arrivals %d",
					name, i, ev.n, cold, ev.n, refCold)
			}
		case evDone:
			d.s.done(ev.t, ev.n)
			for j := 0; j < ev.n; j++ {
				d.ref.Done(now)
			}
		case evTick:
			d.s.Tick(ev.t)
			d.ref.Tick(now)
		}
		d.check(i, now, ev.kind == evTick, free)
	}
	return d.st
}

// diffAdmission replays tr through an Admission and the reference
// admission: arrivals as AdmitBytes, completions as Finish, ticks as
// Window reads, comparing the windows as well as the scalers.
func diffAdmission(t *testing.T, name string, cfg AdmissionConfig, tr []traceEvent, grid bool) diffStats {
	a, ref := NewAdmission(cfg), newRefAdmission(cfg)
	a.Window("t", 0)
	ref.Window(0)
	d := newDiffer(t, name, grid, a.tenants["t"].scaler, ref.scaler)
	d.at(0)
	for i, ev := range tr {
		now := d.at(ev.t)
		free := d.free(now)
		var got, want int
		switch ev.kind {
		case evArrive:
			got, want = a.AdmitBytes("t", ev.n, ev.bytes, ev.t), ref.AdmitBytes(ev.n, ev.bytes, now)
		case evDone:
			a.Finish("t", ev.n, ev.t)
			ref.Finish(ev.n, now)
			got, want = a.Window("t", ev.t), ref.Window(now)
		case evTick:
			got, want = a.Window("t", ev.t), ref.Window(now)
		}
		d.check(i, now, true, free)
		if got != want && d.s.Replicas() == d.ref.Replicas() {
			t.Fatalf("%s event %d: window %d vs reference %d with equal replicas", name, i, got, want)
		}
	}
	return d.st
}

// differentialTraces is how many seeded traces, and of how many events,
// each configuration replays: ten of 20k for the default one, three of
// 5k for the others. The race build (race_test.go) runs one of 2k: the
// test is single-goroutine, so the detector has nothing to find in it.
var differentialTraces = struct{ main, other, events, otherEvents int }{10, 3, 20000, 5000}

func TestDifferentialAgainstReference(t *testing.T) {
	n := differentialTraces
	configs := []struct {
		name           string
		cfg            Config
		traces, events int
	}{
		{"default", Config{}, n.main, n.events},
		{"target0.5", Config{TargetConcurrency: 0.5}, n.other, n.otherEvents},
		{"target2.5", Config{TargetConcurrency: 2.5, StableWindowS: 30, PanicWindowS: 3, ScaleDownDelayS: 10}, n.other, n.otherEvents},
	}
	for _, c := range configs {
		for _, grid := range []bool{true, false} {
			name, unit := c.name, 0.0
			if grid {
				name, unit = name+"/grid", NewFnScaler(c.cfg).step
			}
			var total diffStats
			for seed := int64(1); seed <= int64(c.traces); seed++ {
				tr := genTrace(rand.New(rand.NewSource(seed)), c.events, unit)
				for _, st := range []diffStats{
					diffScaler(t, name+"/scaler", c.cfg, tr, grid),
					diffAdmission(t, name+"/admission", AdmissionConfig{Scaler: c.cfg}, tr, grid),
				} {
					total.steps += st.steps
					total.replicaMismatches += st.replicaMismatches
					total.boundaryTicks += st.boundaryTicks
					total.maxErr[0] = math.Max(total.maxErr[0], st.maxErr[0])
					total.maxErr[1] = math.Max(total.maxErr[1], st.maxErr[1])
				}
			}
			t.Logf("%s: %d steps, max |Δavg| stable %.3g panic %.3g, %d boundary ticks, replicas differ on %d steps (%.3f%%)",
				name, total.steps, total.maxErr[0], total.maxErr[1], total.boundaryTicks,
				total.replicaMismatches, 100*float64(total.replicaMismatches)/float64(total.steps))
		}
	}
}

package ctlplane

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakePool is a deterministic Pool for driving the loop by hand.
type fakePool struct {
	mu sync.Mutex
	n  int
}

func (p *fakePool) Count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

func (p *fakePool) SetCount(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n = n
}

// newLoop builds a loop over fake pools sized as an admin SetCounts
// would size them, reading its signals from *sig.
func newLoop(cfg Config, compute, comm int, autoscale bool, sig *Signals) (*Loop, *fakePool, *fakePool) {
	cp, mp := &fakePool{}, &fakePool{}
	l := NewLoop(cfg, cp, mp, func(bool) Signals { return *sig })
	l.SetCounts(compute, comm)
	l.SetAutoscale(autoscale)
	return l, cp, mp
}

func TestControllerDirection(t *testing.T) {
	c := NewController()
	// Compute queue growing much faster: move cores to compute.
	if got := c.Step(10, 0); got != 1 {
		t.Fatalf("Step(10,0) = %d, want 1", got)
	}
	c.Reset()
	if got := c.Step(0, 10); got != -1 {
		t.Fatalf("Step(0,10) = %d, want -1", got)
	}
}

func TestControllerDeadband(t *testing.T) {
	c := NewController()
	if got := c.Step(0.1, 0); got != 0 {
		t.Fatalf("tiny error moved a core: %d", got)
	}
	// Balanced growth: no move even when both queues grow.
	c.Reset()
	if got := c.Step(50, 50); got != 0 {
		t.Fatalf("balanced growth moved a core: %d", got)
	}
}

func TestControllerIntegralAccumulates(t *testing.T) {
	c := &Controller{Kp: 0.1, Ki: 0.3, Deadband: 0.5, IntegralClamp: 50}
	// A persistent small error should eventually trip the deadband via
	// the integral term.
	moved := false
	for i := 0; i < 20; i++ {
		if c.Step(1, 0) == 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("integral term never acted on persistent error")
	}
}

func TestControllerAntiWindup(t *testing.T) {
	c := NewController()
	for i := 0; i < 1000; i++ {
		c.Step(100, 0)
	}
	if c.integral > c.IntegralClamp {
		t.Fatalf("integral %v exceeds clamp %v", c.integral, c.IntegralClamp)
	}
	// After the pressure reverses, the controller must recover quickly
	// instead of staying saturated.
	flips := 0
	for i := 0; i < 20; i++ {
		if c.Step(0, 100) == -1 {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("controller stuck after saturation")
	}
}

// backlogs returns one Signals per step whose backlogs grow by dc and
// dm tasks a step from zero.
func backlogs(steps, dc, dm int) []Signals {
	out := make([]Signals, steps)
	for i := range out {
		out[i] = Signals{ComputeBacklog: (i + 1) * dc, CommBacklog: (i + 1) * dm}
	}
	return out
}

// TestLoopPI: the PI half of the loop, autoscale off. It moves one core
// a step toward the pool whose backlog grows, keeps the total, never
// takes a pool below one engine, and never feeds an empty backlog. The periodic goroutine reaches
// the same state as steps driven by hand.
func TestLoopPI(t *testing.T) {
	cases := []struct {
		name          string
		compute, comm int
		signals       []Signals
		periodic      bool
		wantCompute   int
		wantComm      int
	}{
		{name: "MovesCoreTowardComputeLoad", compute: 2, comm: 2,
			signals: backlogs(5, 40, 0), wantCompute: 3, wantComm: 1},
		{name: "RespectsFloor", compute: 1, comm: 1,
			signals: backlogs(3, 100, 0), wantCompute: 1, wantComm: 1},
		{name: "Reverses", compute: 3, comm: 1,
			signals: append([]Signals{{}}, backlogs(5, 0, 40)...), wantCompute: 1, wantComm: 3},
		{name: "StartStop", compute: 2, comm: 2, periodic: true,
			signals: backlogs(5, 0, 40), wantCompute: 1, wantComm: 3},
		// A draining comm backlog reads as negative comm growth, but no
		// core moves toward a compute pool with nothing waiting.
		{name: "HoldsTowardEmptyBacklog", compute: 2, comm: 2,
			signals:     []Signals{{CommBacklog: 100}, {CommBacklog: 80}, {CommBacklog: 50}, {CommBacklog: 20}, {}},
			wantCompute: 1, wantComm: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, mp := &fakePool{}, &fakePool{}
			served := make(chan struct{})
			i := 0
			l := NewLoop(Config{Period: time.Millisecond}, cp, mp, func(bool) Signals {
				// Past the script, hold the last backlogs: no growth.
				s := tc.signals[min(i, len(tc.signals)-1)]
				if i++; i == len(tc.signals) {
					close(served)
				}
				return s
			})
			l.SetCounts(tc.compute, tc.comm)
			if tc.periodic {
				l.Start()
				l.Start() // idempotent
				select {
				case <-served:
				case <-time.After(5 * time.Second):
					t.Fatal("periodic loop never stepped through the script")
				}
				l.Stop()
				l.Stop() // idempotent
			} else {
				for range tc.signals {
					l.Step()
				}
			}
			if c, m := cp.Count(), mp.Count(); c != tc.wantCompute || m != tc.wantComm {
				t.Fatalf("pools = (%d, %d), want (%d, %d)", c, m, tc.wantCompute, tc.wantComm)
			}
		})
	}
}

func TestElasticityGrowsUnderBacklogWithHysteresis(t *testing.T) {
	sig := Signals{ComputeBacklog: 100}
	l, pool, _ := newLoop(Config{Min: 1, Max: 3, GrowHoldSteps: 2}, 1, 1, true, &sig)

	// One hot step is not enough: hysteresis demands GrowHoldSteps.
	l.Step()
	if pool.Count() != 1 {
		t.Fatalf("grew after one hot step: count=%d", pool.Count())
	}
	l.Step()
	if pool.Count() != 2 {
		t.Fatalf("count after 2 hot steps = %d, want 2", pool.Count())
	}
	// Sustained pressure keeps growing, but never past Max.
	for i := 0; i < 10; i++ {
		l.Step()
	}
	if pool.Count() != 3 {
		t.Fatalf("count under sustained pressure = %d, want Max=3", pool.Count())
	}
	if l.grows != 2 || l.Resizes() != 2 {
		t.Fatalf("grows=%d resizes=%d, want 2/2", l.grows, l.Resizes())
	}
}

func TestElasticityGrowsOnDispatchWaitP99(t *testing.T) {
	sig := Signals{WaitP99: 50 * time.Millisecond} // empty queue, slow dispatch
	l, pool, _ := newLoop(Config{Min: 1, Max: 2, GrowHoldSteps: 1, GrowWaitP99: 10 * time.Millisecond}, 1, 1, true, &sig)
	l.Step()
	if pool.Count() != 2 {
		t.Fatalf("count = %d, want 2 (p99 pressure)", pool.Count())
	}
}

func TestElasticityShrinksWhenCalm(t *testing.T) {
	sig := Signals{}
	l, pool, _ := newLoop(Config{Min: 1, Max: 3, ShrinkHoldSteps: 3}, 3, 1, true, &sig)

	for i := 0; i < 2; i++ {
		l.Step()
	}
	if pool.Count() != 3 {
		t.Fatalf("shrank before hold steps: count=%d", pool.Count())
	}
	l.Step() // third consecutive calm step
	if pool.Count() != 2 {
		t.Fatalf("count after hold = %d, want 2", pool.Count())
	}
	// Keep calm long enough and it bottoms out at Min, never below.
	for i := 0; i < 20; i++ {
		l.Step()
	}
	if pool.Count() != 1 {
		t.Fatalf("count = %d, want Min=1", pool.Count())
	}
	if l.shrinks != 2 {
		t.Fatalf("shrinks = %d, want 2", l.shrinks)
	}
}

func TestElasticityMixedSignalsResetStreaks(t *testing.T) {
	sigs := []Signals{
		{ComputeBacklog: 0, InFlight: 0}, // calm
		{ComputeBacklog: 0, InFlight: 0}, // calm
		{ComputeBacklog: 1, InFlight: 2}, // neither hot nor calm: resets
		{ComputeBacklog: 0, InFlight: 0}, // calm again, streak restarts
		{ComputeBacklog: 0, InFlight: 0},
	}
	var sig Signals
	l, pool, _ := newLoop(Config{Min: 1, Max: 4, ShrinkHoldSteps: 3}, 2, 1, true, &sig)
	for _, s := range sigs {
		sig = s
		l.Step()
	}
	if pool.Count() != 2 {
		t.Fatalf("count = %d, want 2 (streak was reset)", pool.Count())
	}
}

func TestElasticityDisabledHoldsStill(t *testing.T) {
	sig := Signals{ComputeBacklog: 1000}
	l, pool, _ := newLoop(Config{Min: 1, Max: 8, GrowHoldSteps: 1}, 1, 1, false, &sig)
	for i := 0; i < 5; i++ {
		l.Step()
	}
	if pool.Count() != 1 || l.Resizes() != 0 {
		t.Fatalf("disabled budget rule acted: count=%d resizes=%d", pool.Count(), l.Resizes())
	}
	l.SetAutoscale(true)
	l.Step()
	if pool.Count() != 2 {
		t.Fatalf("re-enabled budget rule idle: count=%d", pool.Count())
	}
}

// TestElasticityBudgetBound: the PI moves cores toward a growing comm
// backlog while the compute side stays hot, and the budget rule grows
// compute back only while compute + comm is below Max plus the boot
// comm count. A compute pool the PI left below Min is not forced back.
func TestElasticityBudgetBound(t *testing.T) {
	sig := Signals{ComputeBacklog: 1000}
	l, cp, mp := newLoop(Config{Min: 2, Max: 4, GrowHoldSteps: 1}, 2, 1, true, &sig)
	for i := 0; i < 30; i++ {
		sig.CommBacklog += 10
		l.Step()
		if c, m := cp.Count(), mp.Count(); c+m > 5 {
			t.Fatalf("step %d: budget %d + %d > Max 4 + boot comm 1", i, c, m)
		}
	}
	if m := mp.Count(); m < 3 {
		t.Fatalf("comm = %d: the PI never moved a core toward the comm backlog", m)
	}
	// Idle and below Min: the rule neither restores nor shrinks it.
	sig = Signals{}
	c, m := cp.Count(), mp.Count()
	for i := 0; i < 5; i++ {
		l.Step()
	}
	if cp.Count() != c || mp.Count() != m {
		t.Fatalf("idle pools moved: (%d, %d) -> (%d, %d)", c, m, cp.Count(), mp.Count())
	}
}

func TestElasticityStartStop(t *testing.T) {
	sig := Signals{ComputeBacklog: 100}
	l, pool, _ := newLoop(Config{Min: 1, Max: 4, GrowHoldSteps: 1, Period: time.Millisecond}, 1, 1, true, &sig)
	l.Start()
	l.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for pool.Count() < 4 {
		select {
		case <-deadline:
			t.Fatalf("pool never reached Max under load: count=%d", pool.Count())
		case <-time.After(time.Millisecond):
		}
	}
	l.Stop()
	l.Stop() // idempotent
	if l.Resizes() < 3 {
		t.Fatalf("resizes = %d, want >= 3", l.Resizes())
	}
}

// TestConfigBoundsNormalization: an explicit Max below Min pins the
// pool at Min (a fixed-size pool) — it is never silently widened to
// 4×Min, which would blow past the operator's ceiling.
func TestConfigBoundsNormalization(t *testing.T) {
	cases := []struct {
		in       Config
		min, max int
	}{
		{Config{}, 1, 4},
		{Config{Min: 8}, 8, 32},          // unset Max: 4×Min
		{Config{Min: 8, Max: 4}, 8, 8},   // inverted: fixed at Min
		{Config{Min: 2, Max: 16}, 2, 16}, // sane pair untouched
		{Config{Min: -3, Max: -1}, 1, 4}, // garbage: defaults
	}
	for _, c := range cases {
		if got := c.in.withDefaults(); got.Min != c.min || got.Max != c.max {
			t.Errorf("Config %+v → bounds [%d, %d], want [%d, %d]", c.in, got.Min, got.Max, c.min, c.max)
		}
	}
}

// TestLoopInvariants is a seeded property test: random signal sequences
// interleaved with random admin SetCounts and SetAutoscale calls. After
// every operation it checks the loop's invariants; a failure names its
// seed and the operations up to it, and rerunning replays it exactly.
func TestLoopInvariants(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 100
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := checkLoopInvariants(seed, 60); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func checkLoopInvariants(seed int64, ops int) error {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{Min: 1 + rng.Intn(3), GrowHoldSteps: 1 + rng.Intn(2), ShrinkHoldSteps: 1 + rng.Intn(3)}
	cfg.Max = cfg.Min + rng.Intn(4)
	var sig Signals
	on := rng.Intn(2) == 0
	l, cp, mp := newLoop(cfg, 1+rng.Intn(4), 1+rng.Intn(3), on, &sig)
	// base is the comm count of the last SetCounts, and total the
	// budget right after the last admin call.
	base, total := mp.Count(), cp.Count()+mp.Count()
	var trace []string
	admin := true // the last operation was SetCounts
	for op := 0; op < ops; op++ {
		c0, m0 := cp.Count(), mp.Count()
		prev := sig
		stepped, resizedOnly := false, false
		switch r := rng.Intn(10); {
		case r == 0:
			c, m := rng.Intn(9)-1, rng.Intn(5)-1
			trace = append(trace, fmt.Sprintf("SetCounts(%d, %d)", c, m))
			c, m = l.SetCounts(c, m)
			if cp.Count() != c || mp.Count() != m {
				return fmt.Errorf("%v: SetCounts reported (%d, %d), pools hold (%d, %d)", trace, c, m, cp.Count(), mp.Count())
			}
			base, total = m, c+m
		case r == 1:
			on = !on
			trace = append(trace, fmt.Sprintf("SetAutoscale(%v)", on))
			l.SetAutoscale(on)
			total = cp.Count() + mp.Count()
		default:
			if rng.Intn(2) == 0 {
				sig.ComputeBacklog = max(0, sig.ComputeBacklog+rng.Intn(41)-20)
				sig.CommBacklog = max(0, sig.CommBacklog+rng.Intn(41)-20)
			}
			sig.InFlight = rng.Intn(c0 + 1)
			sig.WaitP99 = time.Duration(rng.Intn(10)) * time.Millisecond
			stepped = true
			resizedOnly = admin && sig.ComputeBacklog == prev.ComputeBacklog && sig.CommBacklog == prev.CommBacklog
			trace = append(trace, fmt.Sprintf("Step(%+v)", sig))
			l.Step()
		}
		admin = strings.HasPrefix(trace[len(trace)-1], "SetCounts")
		c, m := cp.Count(), mp.Count()
		switch {
		case c < 1 || m < 1:
			return fmt.Errorf("%v: pools (%d, %d) below one engine", trace, c, m)
		case on && c+m > cfg.Max+base:
			return fmt.Errorf("%v: budget %d + %d above Max %d + comm base %d", trace, c, m, cfg.Max, base)
		case !on && c+m != total:
			return fmt.Errorf("%v: autoscale off, total %d + %d != %d", trace, c, m, total)
		case stepped && (abs(c-c0) > 1 || abs(m-m0) > 1):
			return fmt.Errorf("%v: one step moved (%d, %d) -> (%d, %d)", trace, c0, m0, c, m)
		case resizedOnly && c != c0 && c-c0 == m0-m:
			return fmt.Errorf("%v: an admin resize with unchanged backlogs moved a core", trace)
		}
	}
	return nil
}

func abs(n int) int { return max(n, -n) }

// Package ctlplane is the dynamic control plane of a Dandelion worker:
// the layer that turns boot-time configuration into runtime
// reconfiguration. It owns two things.
//
// First, the Reconfigurer interface — the contract every layer above
// the dispatcher programs against when it wants to change a running
// node: per-tenant DRR weights (applied through internal/sched),
// engine-pool sizes (applied through the Loop), batch
// admission-window clamps (applied through internal/autoscale), the
// autoscale switch, and drain/resume. core.Platform implements it; the
// frontend's authenticated /admin routes and the cluster manager's
// fan-out both speak it, so a weight update entered over HTTP reaches
// the same code path an SDK caller uses.
//
// Second, the Loop — the worker's one control loop, and the only code
// that resizes its engine pools. Every control period (30 ms, as in
// §5 of the paper) it runs the paper's PI Controller on the growth of
// the two pools' backlogs and moves at most one core between them,
// keeping the total. With autoscale on it also grows or shrinks that
// total, the core budget, one engine at a time: hysteresis on both
// edges (GrowHoldSteps consecutive hot observations before a grow,
// ShrinkHoldSteps consecutive calm ones before a shrink) keeps it from
// oscillating on bursty load, and the budget never exceeds Max plus
// the communication count set at boot or by the last SetCounts. The
// same Controller drives the discrete-event model in internal/model/faas.
package ctlplane

import (
	"sync"
	"time"
)

// Reconfigurer is the runtime-reconfiguration surface of one worker
// node. All methods are safe for concurrent use and take effect without
// a restart; setters apply from the next scheduling/admission decision.
type Reconfigurer interface {
	// SetTenantWeight sets a tenant's DRR dispatch weight on every
	// scheduling plane of the node (non-positive weights are clamped to
	// 1 by the scheduler); TenantWeight reads it back (1 for tenants the
	// node has never seen).
	SetTenantWeight(tenant string, weight int)
	TenantWeight(tenant string) int
	// TenantShare reports the tenant's current weighted dispatch share
	// in (0, 1] among the compute plane's active tenants.
	TenantShare(tenant string) float64
	// SetEngineCounts resizes the compute and communication engine
	// pools (values < 1 are clamped to 1); EngineCounts reads the
	// current sizes.
	SetEngineCounts(compute, comm int)
	EngineCounts() (compute, comm int)
	// SetAutoscale toggles the control loop's budget rule at runtime; it
	// is a no-op on nodes booted without autoscale. AutoscaleOn reports
	// the switch.
	SetAutoscale(on bool)
	AutoscaleOn() bool
	// SetAdmissionClamp overrides the batch admission-window clamp
	// [min, max] applied to every tenant's window; AdmissionClamp reads
	// the current clamp.
	SetAdmissionClamp(min, max int)
	AdmissionClamp() (min, max int)
	// Drain makes the node reject new invocations (in-flight work
	// completes); Resume re-admits; Draining reports the state.
	Drain()
	Resume()
	Draining() bool
}

// DefaultPeriod is the paper's 30 ms control interval.
const DefaultPeriod = 30 * time.Millisecond

// Controller is the PI controller of §5. It is mechanism-agnostic:
// callers feed it backlog growth observations and apply the returned
// core moves.
type Controller struct {
	// Kp and Ki are the proportional and integral gains.
	Kp, Ki float64
	// Deadband suppresses moves for small control signals, avoiding
	// oscillation when the system is balanced.
	Deadband float64
	// IntegralClamp bounds the integral term (anti-windup).
	IntegralClamp float64

	integral float64
}

// NewController returns a controller with gains that settle within a few
// control periods for backlog-growth error signals measured in tasks per
// period.
func NewController() *Controller {
	return &Controller{Kp: 0.5, Ki: 0.1, Deadband: 0.5, IntegralClamp: 50}
}

// Step consumes one observation of the two backlogs' growth over the
// last period and returns the number of cores to move: positive means
// move that many cores from communication to compute, negative the
// reverse, zero means hold. At most one core moves per step, matching
// the paper's one-core-at-a-time reassignment.
func (c *Controller) Step(computeGrowth, commGrowth float64) int {
	err := computeGrowth - commGrowth
	c.integral += err
	if c.integral > c.IntegralClamp {
		c.integral = c.IntegralClamp
	}
	if c.integral < -c.IntegralClamp {
		c.integral = -c.IntegralClamp
	}
	u := c.Kp*err + c.Ki*c.integral
	switch {
	case u > c.Deadband:
		return 1
	case u < -c.Deadband:
		return -1
	}
	return 0
}

// Reset clears the integral state.
func (c *Controller) Reset() { c.integral = 0 }

// Pool is the slice of engine.Pool the loop actuates.
type Pool interface {
	Count() int
	SetCount(n int)
}

// Signals is one observation of the load on the two pools.
type Signals struct {
	// ComputeBacklog and CommBacklog are each pool's backlog: tasks
	// parked in its scheduling plane plus tasks in its engine queue.
	// The dispatch window only moves tasks between the two, so resizing
	// a pool does not change its backlog.
	ComputeBacklog int
	CommBacklog    int
	// InFlight is the number of compute tasks executing on engines.
	InFlight int
	// WaitP99 is the compute scheduling plane's worst per-tenant
	// dispatch-wait p99, the fairness-facing latency signal. Sources
	// fill it only when asked to (autoscale on).
	WaitP99 time.Duration
}

// Config parameterizes the loop's autoscale rule. The zero value
// selects the documented defaults.
type Config struct {
	// Min and Max bound the compute pool while the PI has moved no core:
	// the core budget stays in [Min, Max] plus the communication count
	// set at boot or by the last SetCounts. Min defaults to 1; Max unset
	// (≤ 0) defaults to 4×Min, and an explicit Max below Min is raised
	// to Min (a fixed-size pool), never silently widened.
	Min, Max int
	// GrowBacklogPerEngine is the compute backlog per engine that reads
	// as pressure (default 4).
	GrowBacklogPerEngine int
	// GrowWaitP99 is the dispatch-wait p99 that reads as pressure
	// (default 5ms).
	GrowWaitP99 time.Duration
	// GrowHoldSteps is the number of consecutive hot observations before
	// a grow (default 2); ShrinkHoldSteps the consecutive calm
	// observations before a shrink (default 10). Shrinking deliberately
	// needs a longer run of evidence than growing, mirroring the
	// conservative scale-down of internal/autoscale.
	GrowHoldSteps   int
	ShrinkHoldSteps int
	// Period is the control interval (default DefaultPeriod).
	Period time.Duration
}

func (c Config) withDefaults() Config {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 4 * c.Min
	} else if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.GrowBacklogPerEngine < 1 {
		c.GrowBacklogPerEngine = 4
	}
	if c.GrowWaitP99 <= 0 {
		c.GrowWaitP99 = 5 * time.Millisecond
	}
	if c.GrowHoldSteps < 1 {
		c.GrowHoldSteps = 2
	}
	if c.ShrinkHoldSteps < 1 {
		c.ShrinkHoldSteps = 10
	}
	if c.Period <= 0 {
		c.Period = DefaultPeriod
	}
	return c
}

// Loop owns a worker's compute and communication pools: it is the one
// caller of their SetCount. Step runs on one goroutine (Start) or on a
// test's or caller's own timer. It samples its signals unlocked; all
// else it reads and writes is guarded by one mutex, which SetCounts and
// SetAutoscale take too and which every resize holds, so no two
// resizes interleave.
type Loop struct {
	cfg     Config
	compute Pool
	comm    Pool
	signals func(wait bool) Signals

	mu        sync.Mutex
	pi        *Controller
	autoscale bool
	// commBase is the comm count set at boot or by the last SetCounts;
	// the budget bound is cfg.Max + commBase.
	commBase int
	// prevCompute and prevComm are the backlogs the last step observed.
	prevCompute, prevComm int
	hotSteps, calmSteps   int
	grows, shrinks        uint64
	stop, done            chan struct{}
}

// NewLoop wires the loop to two pools and a signal source, which
// fills Signals.WaitP99 only when called with wait true. The loop
// starts with autoscale off and the pools as they are; Start launches
// the periodic steps.
func NewLoop(cfg Config, compute, comm Pool, signals func(wait bool) Signals) *Loop {
	return &Loop{
		cfg: cfg.withDefaults(), compute: compute, comm: comm, signals: signals,
		pi: NewController(), commBase: comm.Count(),
	}
}

// SetCounts resizes both pools: the admin path and journal replay.
// Counts below 1 are raised to 1, since a node with no engine of a kind
// cannot dispatch to it; with autoscale on the compute count is also
// clamped into [Min, Max]. It returns the sizes applied. The comm count
// becomes the budget's new base, and the PI's integral restarts from
// the operator's decision.
func (l *Loop) SetCounts(compute, comm int) (int, int) {
	compute, comm = max(compute, 1), max(comm, 1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.autoscale {
		compute = min(max(compute, l.cfg.Min), l.cfg.Max)
	}
	l.commBase = comm
	l.pi.Reset()
	l.compute.SetCount(compute)
	l.comm.SetCount(comm)
	return compute, comm
}

// SetAutoscale toggles the budget rule; the PI runs either way. Turning
// it on shrinks a budget above the bound back to it, compute first.
func (l *Loop) SetAutoscale(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.autoscale = on
	l.hotSteps, l.calmSteps = 0, 0
	c, m := l.compute.Count(), l.comm.Count()
	if over := c + m - l.cfg.Max - l.commBase; on && over > 0 {
		cut := min(over, c-1)
		l.compute.SetCount(c - cut)
		l.comm.SetCount(m - (over - cut))
	}
}

// Autoscale reports the budget rule's switch.
func (l *Loop) Autoscale() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.autoscale
}

// Resizes reports the cumulative number of budget grows plus shrinks
// the autoscale rule has applied — the EngineResizes stats gauge.
func (l *Loop) Resizes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.grows + l.shrinks
}

// Step runs one control period and changes at most one thing.
//
// First the PI: its error is the compute backlog's growth minus the
// comm backlog's. It moves one core toward the growing side, keeping
// each pool at one engine or more, and never toward a pool whose
// backlog is empty: a draining backlog reads as negative growth, but
// handing its cores to an idle pool would only slow the drain.
//
// Then, if the PI held still and autoscale is on, the budget rule.
// Hot (compute backlog ≥ GrowBacklogPerEngine×compute, or WaitP99 ≥
// GrowWaitP99) for GrowHoldSteps consecutive steps grows the compute
// pool by one engine while the budget is below Max + the comm base.
// Calm (empty compute backlog and an idle compute engine) for
// ShrinkHoldSteps consecutive steps shrinks it by one while the budget
// is above Min + the comm base. Any observation that is neither resets
// both streaks. A streak that comes due in a step the PI moved acts on
// the next step.
func (l *Loop) Step() {
	s := l.signals(l.Autoscale())
	l.mu.Lock()
	defer l.mu.Unlock()
	c, m := l.compute.Count(), l.comm.Count()
	move := l.pi.Step(float64(s.ComputeBacklog-l.prevCompute), float64(s.CommBacklog-l.prevComm))
	l.prevCompute, l.prevComm = s.ComputeBacklog, s.CommBacklog
	moved := true
	switch {
	case move > 0 && m > 1 && s.ComputeBacklog > 0:
		l.comm.SetCount(m - 1)
		l.compute.SetCount(c + 1)
	case move < 0 && c > 1 && s.CommBacklog > 0:
		l.compute.SetCount(c - 1)
		l.comm.SetCount(m + 1)
	default:
		moved = false
	}
	if !l.autoscale {
		return
	}
	hot := s.ComputeBacklog >= l.cfg.GrowBacklogPerEngine*c || s.WaitP99 >= l.cfg.GrowWaitP99
	calm := s.ComputeBacklog == 0 && s.InFlight < c
	switch {
	case hot:
		l.calmSteps = 0
		l.hotSteps++
		if !moved && l.hotSteps >= l.cfg.GrowHoldSteps && c+m < l.cfg.Max+l.commBase {
			l.compute.SetCount(c + 1)
			l.grows++
			l.hotSteps = 0
		}
	case calm:
		l.hotSteps = 0
		l.calmSteps++
		if !moved && l.calmSteps >= l.cfg.ShrinkHoldSteps && c > 1 && c+m > l.cfg.Min+l.commBase {
			l.compute.SetCount(c - 1)
			l.shrinks++
			l.calmSteps = 0
		}
	default:
		l.hotSteps, l.calmSteps = 0, 0
	}
}

// Start launches the periodic control loop; it is idempotent.
func (l *Loop) Start() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stop != nil {
		return
	}
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go l.run(l.stop, l.done)
}

func (l *Loop) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(l.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			l.Step()
		}
	}
}

// Stop halts the control loop and waits for it to exit.
func (l *Loop) Stop() {
	l.mu.Lock()
	stop, done := l.stop, l.done
	l.stop, l.done = nil, nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

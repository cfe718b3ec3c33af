// Runtime reconfiguration: Platform's implementation of the dynamic
// control plane (ctlplane.Reconfigurer). Everything here changes a
// running node without a restart — tenant weights land in the DRR
// scheduling planes, engine counts land in the pools (and through the
// WindowFn-tracked dispatch windows, in the scheduler's refill
// allowance), admission clamps land in the batch admission plane, and
// drain flips the admission gate the public invoke entry points check.
// The frontend's authenticated /admin routes and cluster.Manager's
// fan-out both terminate in these methods.
package core

import (
	"time"

	"dandelion/internal/autoscale"
	"dandelion/internal/ctlplane"
	"dandelion/internal/journal"
)

// Reconfigurer compliance is asserted at compile time; the frontend's
// /admin routes and cluster.Manager's fan-out both program against the
// interface.
var _ ctlplane.Reconfigurer = (*Platform)(nil)

// TenantWeight reports a tenant's current DRR dispatch weight (the
// compute and communication planes are kept in lockstep by
// SetTenantWeight, so one read suffices).
func (p *Platform) TenantWeight(tenant string) int {
	return p.computeSched.Weight(tenant)
}

// TenantShare reports the tenant's weighted dispatch share in (0, 1]
// among the compute scheduling plane's active tenants.
func (p *Platform) TenantShare(tenant string) float64 {
	return p.computeSched.Share(tenant)
}

// SetEngineCounts resizes both engine pools at runtime. Counts below 1
// are clamped to 1 — a node with zero engines of either kind deadlocks
// its dispatch path, so the control plane refuses to create one — and
// while the elasticity controller is enabled the compute count is
// additionally clamped into its [Min, Max] bounds, so a manual resize
// and the controller never fight (callers read the effective sizes
// back with EngineCounts). With autoscale toggled off the bounds do
// not apply: the operator takes manual control of the pool size. The
// schedulers' dispatch windows track pool sizes through WindowFn and
// widen or narrow automatically.
func (p *Platform) SetEngineCounts(compute, comm int) {
	if compute < 1 {
		compute = 1
	}
	if comm < 1 {
		comm = 1
	}
	if p.elastic != nil && p.elastic.Enabled() {
		min, max := p.elastic.Bounds()
		if compute < min {
			compute = min
		}
		if compute > max {
			compute = max
		}
	}
	p.computePool.SetCount(compute)
	p.commPool.SetCount(comm)
	p.journalReconfig(journal.OpEngineCounts, "", int64(compute), int64(comm))
}

// EngineCounts reports the current engine-pool sizes.
func (p *Platform) EngineCounts() (compute, comm int) {
	return p.computePool.Count(), p.commPool.Count()
}

// SetAutoscale toggles the elasticity controller at runtime; a no-op on
// platforms built without Options.Autoscale.
func (p *Platform) SetAutoscale(on bool) {
	if p.elastic != nil {
		p.elastic.SetEnabled(on)
	}
	var a int64
	if on {
		a = 1
	}
	p.journalReconfig(journal.OpAutoscale, "", a, 0)
}

// AutoscaleOn reports whether the elasticity controller is present and
// enabled.
func (p *Platform) AutoscaleOn() bool {
	return p.elastic != nil && p.elastic.Enabled()
}

// EngineResizes reports the cumulative number of compute-pool resizes
// the elasticity controller has applied (0 without Options.Autoscale).
func (p *Platform) EngineResizes() uint64 {
	if p.elastic == nil {
		return 0
	}
	return p.elastic.Resizes()
}

// Elasticity exposes the elasticity controller (nil without
// Options.Autoscale); tests drive StepOnce through it.
func (p *Platform) Elasticity() *ctlplane.Elasticity { return p.elastic }

// NodeStats adapts Stats to the cluster manager's Admin interface;
// an in-process platform snapshot cannot fail, so the error is always
// nil (remote node proxies are where it earns its keep).
func (p *Platform) NodeStats() (Stats, error) { return p.Stats(), nil }

// Admission exposes the node's batch admission plane: the per-tenant
// window source the frontend's /invoke-batch route splits client
// batches with. Owning it here (rather than in the frontend) is what
// lets the control plane override admission windows on a live node.
func (p *Platform) Admission() *autoscale.Admission { return p.adm }

// SetAdmissionClamp overrides the batch admission plane's [min, max]
// window clamp; see autoscale.Admission.SetClamp for normalization.
// The journaled record carries the normalized clamp read back from the
// admission plane, so replay reproduces the effective state.
func (p *Platform) SetAdmissionClamp(min, max int) {
	p.adm.SetClamp(min, max)
	lo, hi := p.adm.Clamp()
	p.journalReconfig(journal.OpAdmissionClamp, "", int64(lo), int64(hi))
}

// AdmissionClamp reports the batch admission plane's current clamp.
func (p *Platform) AdmissionClamp() (min, max int) { return p.adm.Clamp() }

// Drain stops admitting new invocations: Invoke and
// InvokeBatch reject with ErrDraining while in-flight work (including
// every statement of already-admitted compositions) completes normally.
func (p *Platform) Drain() {
	p.draining.Store(true)
	p.journalReconfig(journal.OpDrain, "", 1, 0)
}

// Resume re-admits invocations after a Drain.
func (p *Platform) Resume() {
	p.draining.Store(false)
	p.journalReconfig(journal.OpDrain, "", 0, 0)
}

// Draining reports whether the node is refusing new invocations.
func (p *Platform) Draining() bool { return p.draining.Load() }

// elasticSignals samples the compute plane's load for the elasticity
// controller: backlog is sched-parked tasks plus the engine queue, and
// WaitP99 the worst per-tenant dispatch-wait p99 — the gauge the
// fairness work is judged by, reused as the scale-up trigger. Only
// tenants with *queued* work contribute their p99: the gauge is
// computed over a ring of past samples, so without new dispatches it
// reflects a finished burst, and counting it — for an idle tenant, or
// for one whose only activity is an already-running long request —
// would read as pressure forever and pin the pool at Max. A tenant
// with nothing parked cannot be accruing dispatch wait right now.
func (p *Platform) elasticSignals() ctlplane.Signals {
	var queued int
	var p99 time.Duration
	for _, ts := range p.computeSched.Stats() {
		queued += ts.Queued
		if ts.Queued > 0 && ts.P99DispatchWait > p99 {
			p99 = ts.P99DispatchWait
		}
	}
	return ctlplane.Signals{
		QueueLen: queued + p.computePool.Queue().Len(),
		InFlight: p.computePool.InFlight(),
		WaitP99:  p99,
	}
}

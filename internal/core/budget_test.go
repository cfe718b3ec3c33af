package core

import (
	"testing"

	"dandelion/internal/ctlplane"
	"dandelion/internal/engine"
)

// TestEngineBudgetIsBounded: the engine pools' core budget (compute +
// comm) stays bounded while the compute side is hot and the comm queue
// grows. The pools and their control loop are built as NewPlatform
// builds them: compute 2, comm 1, the compute pool elastic in [2, 4].
// So the budget may never exceed Max plus the boot comm count, 4 + 1.
func TestEngineBudgetIsBounded(t *testing.T) {
	compute := engine.NewPool(engine.Compute, engine.NewQueue())
	comm := engine.NewPool(engine.Communication, engine.NewQueue())
	comm.SetCommConcurrency(1)
	release := make(chan struct{})
	defer func() {
		close(release)
		compute.Shutdown()
		comm.Shutdown()
	}()

	hot := func(bool) ctlplane.Signals {
		return ctlplane.Signals{ComputeBacklog: 1000, CommBacklog: comm.Queue().Len()}
	}
	loop := ctlplane.NewLoop(ctlplane.Config{Min: 2, Max: 4, GrowHoldSteps: 1}, compute, comm, hot)
	loop.SetCounts(2, 1)
	loop.SetAutoscale(true)

	for round := 0; round < 30; round++ {
		for i := 0; i < 10; i++ {
			comm.Queue().Push(engine.Task{Do: func() { <-release }})
		}
		loop.Step()
	}
	if c, m := compute.Count(), comm.Count(); c+m > 5 {
		t.Fatalf("engine budget = %d compute + %d comm = %d, want <= 5", c, m, c+m)
	}
}

// TestControlStepAllocatesNothing: the control loop steps every 30 ms
// on every node. With autoscale off its signals are the two backlogs
// alone, read without sched.Stats' copy and sort, so the step
// allocates nothing.
func TestControlStepAllocatesNothing(t *testing.T) {
	p := newPlatform(t, Options{})
	if a := testing.AllocsPerRun(100, p.loop.Step); a != 0 {
		t.Fatalf("control step allocates %v times", a)
	}
}

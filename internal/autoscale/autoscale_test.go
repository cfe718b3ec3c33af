package autoscale

import (
	"math"
	"testing"
)

func TestFirstRequestIsCold(t *testing.T) {
	s := NewFnScaler(Config{})
	if !s.Arrive(0) {
		t.Fatal("first request must be a cold start")
	}
	if s.Replicas() != 1 {
		t.Fatalf("replicas = %d", s.Replicas())
	}
}

func TestWarmReplicaServesNextRequest(t *testing.T) {
	s := NewFnScaler(Config{})
	s.Arrive(0)
	s.Done(0.1)
	if s.Arrive(1) {
		t.Fatal("request with warm idle replica should be hot")
	}
}

func TestConcurrencyBeyondCapacityIsCold(t *testing.T) {
	s := NewFnScaler(Config{TargetConcurrency: 1})
	if !s.Arrive(0) {
		t.Fatal("first cold")
	}
	// Second concurrent request exceeds 1 replica × target 1.
	if !s.Arrive(0.01) {
		t.Fatal("overflow request should be cold")
	}
	if s.Replicas() != 2 {
		t.Fatalf("replicas = %d", s.Replicas())
	}
}

func TestScaleDownAfterIdle(t *testing.T) {
	s := NewFnScaler(Config{StableWindowS: 60, ScaleDownDelayS: 30})
	s.Arrive(0)
	s.Done(0.2)
	// Tick through 2 minutes of idleness.
	for now := 1.0; now <= 120; now++ {
		s.Tick(now)
	}
	if s.Replicas() != 0 {
		t.Fatalf("replicas = %d after long idle, want 0", s.Replicas())
	}
}

func TestReplicasHeldDuringWindow(t *testing.T) {
	s := NewFnScaler(Config{StableWindowS: 60, ScaleDownDelayS: 30})
	s.Arrive(0)
	s.Done(0.2)
	// Shortly after the request, the replica must still be warm: this
	// is exactly the committed-memory overhead of Figure 1.
	for now := 1.0; now <= 20; now++ {
		s.Tick(now)
	}
	if s.Replicas() != 1 {
		t.Fatalf("replicas = %d at t=20s, want 1 (kept warm)", s.Replicas())
	}
}

func TestSteadyLoadConvergesToDemand(t *testing.T) {
	// 4 concurrent requests sustained: replicas should settle near 4.
	s := NewFnScaler(Config{TargetConcurrency: 1, StableWindowS: 10, ScaleDownDelayS: 5})
	now := 0.0
	for i := 0; i < 4; i++ {
		s.Arrive(now)
	}
	for now = 1; now <= 60; now++ {
		s.Tick(now)
	}
	if s.Replicas() < 4 || s.Replicas() > 5 {
		t.Fatalf("replicas = %d under steady concurrency 4", s.Replicas())
	}
}

func TestNeverScaleBelowInFlight(t *testing.T) {
	s := NewFnScaler(Config{StableWindowS: 5, ScaleDownDelayS: 1})
	s.Arrive(0)
	s.Arrive(0)
	// Long-running requests: windowed average stays 2, so no down-scale
	// below 2 even after delays.
	for now := 1.0; now <= 30; now++ {
		s.Tick(now)
	}
	if s.Replicas() < 2 {
		t.Fatalf("replicas = %d with 2 in flight", s.Replicas())
	}
}

func TestPanicModeOnBurst(t *testing.T) {
	s := NewFnScaler(Config{TargetConcurrency: 1, StableWindowS: 60, PanicWindowS: 6})
	// Quiet for a while, then a sharp burst of 10 concurrent requests.
	s.Arrive(0)
	s.Done(0.1)
	for now := 1.0; now <= 50; now++ {
		s.Tick(now)
	}
	for i := 0; i < 10; i++ {
		s.Arrive(51)
	}
	s.Tick(52)
	s.Tick(57)
	// Panic window (6s) sees concurrency 10; stable window dilutes it.
	// Desired must jump to cover the burst.
	if s.Replicas() < 10 {
		t.Fatalf("replicas = %d during burst, want >= 10", s.Replicas())
	}
}

func TestWindowAverage(t *testing.T) {
	s := NewFnScaler(Config{StableWindowS: 10})
	// Concurrency 2 for [0,5), 0 for [5,10): average over 10s = 1.
	s.Arrive(0)
	s.Arrive(0)
	s.Done(5)
	s.Done(5)
	got := s.windowAvg(10, 10)
	if math.Abs(got-1.0) > 0.01 {
		t.Fatalf("window avg = %v, want 1.0", got)
	}
}

// TestWindowAverageHasNoEventLag: an event sets the concurrency level
// from its own instant onward, so the average must not see the level
// that held before it.
func TestWindowAverageHasNoEventLag(t *testing.T) {
	s := NewFnScaler(Config{StableWindowS: 10})
	s.Arrive(0)
	s.Tick(10)
	if got := s.windowAvg(10, 10); math.Abs(got-1) > 1e-9 {
		t.Fatalf("one request in flight over [0,10): avg = %v, want 1", got)
	}

	s = NewFnScaler(Config{StableWindowS: 10})
	s.Arrive(0)
	s.Arrive(0)
	s.Done(5)
	s.Done(5)
	if got := s.windowAvg(5, 5); math.Abs(got-2) > 1e-9 {
		t.Fatalf("two requests in flight over [0,5): avg = %v, want 2", got)
	}
}

func TestDoneWithoutArriveIsSafe(t *testing.T) {
	s := NewFnScaler(Config{})
	s.Done(0)
	if s.Concurrency() != 0 {
		t.Fatal("concurrency went negative")
	}
}

func TestColdFractionUnderPoissonLoad(t *testing.T) {
	// A function invoked steadily every 2 s with 100 ms execution should
	// be mostly warm: this is what lets Knative achieve 97% hot in §7.8.
	s := NewFnScaler(Config{})
	cold := 0
	n := 0
	now := 0.0
	for i := 0; i < 300; i++ {
		now = float64(i) * 2
		if s.Arrive(now) {
			cold++
		}
		n++
		s.Done(now + 0.1)
		s.Tick(now + 1)
	}
	frac := float64(cold) / float64(n)
	if frac > 0.1 {
		t.Fatalf("cold fraction = %v, want < 0.1", frac)
	}
}

package load

import (
	"math"
	"testing"

	"dandelion/internal/sim"
)

func TestRecorderSplitsColdHot(t *testing.T) {
	r := NewRecorder()
	r.Record(1, false)
	r.Record(2, false)
	r.Record(100, true)
	r.RecordFailure()
	if r.Completed != 3 || r.Failed != 1 {
		t.Fatalf("completed/failed = %d/%d", r.Completed, r.Failed)
	}
	if got := r.ColdFraction(); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("cold fraction = %v", got)
	}
	if r.HotLatency.Count() != 2 || r.ColdLatency.Count() != 1 {
		t.Fatal("cold/hot split wrong")
	}
	if r.Latency.Max() != 100 {
		t.Fatal("latency sample missing cold request")
	}
}

func TestEmptyRecorderColdFraction(t *testing.T) {
	if NewRecorder().ColdFraction() != 0 {
		t.Fatal("empty recorder cold fraction")
	}
}

func TestPatternRateAt(t *testing.T) {
	p := Pattern{StepS: 10, Rates: []float64{5, 50, 5}}
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 5}, {9.99, 5}, {10, 50}, {19.9, 50}, {20, 5}, {29.9, 5}, {30, 0}, {-1, 0},
	}
	for _, c := range cases {
		if got := p.RateAt(c.t); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if p.Duration() != 30 {
		t.Fatalf("duration = %v", p.Duration())
	}
}

func TestBurstyPattern(t *testing.T) {
	p := Bursty(10, 100, 30, 10, 2)
	if p.Duration() != 30 {
		t.Fatalf("duration = %v", p.Duration())
	}
	// Steps 0,1 and 10,11 and 20,21 burst.
	if p.Rates[0] != 100 || p.Rates[1] != 100 || p.Rates[2] != 10 {
		t.Fatalf("rates = %v", p.Rates[:3])
	}
	if p.Rates[10] != 100 || p.Rates[12] != 10 {
		t.Fatalf("burst placement wrong: %v", p.Rates[9:13])
	}
}

func TestGeneratePatternCounts(t *testing.T) {
	e := sim.NewEngine(3)
	p := Pattern{StepS: 10, Rates: []float64{100, 0, 100}}
	count := 0
	var maxIdx int
	GeneratePattern(e, p, func(i int) {
		count++
		if i > maxIdx {
			maxIdx = i
		}
	})
	e.RunAll()
	// Expect ~2000 arrivals (two active 10s steps at 100/s).
	if count < 1700 || count > 2300 {
		t.Fatalf("arrivals = %d, want ~2000", count)
	}
	if maxIdx != count-1 {
		t.Fatalf("indices not dense: max %d count %d", maxIdx, count)
	}
	// Quiet step: no arrivals between t=10 and t=20.
	e2 := sim.NewEngine(3)
	var times []float64
	GeneratePattern(e2, p, func(int) { times = append(times, float64(e2.Now())) })
	e2.RunAll()
	for _, tt := range times {
		if tt > 10.5 && tt < 20 {
			t.Fatalf("arrival during quiet step at %v", tt)
		}
	}
}

func TestSweepPointSaturated(t *testing.T) {
	p := SweepPoint{Offered: 1000, Completed: 1000}
	if p.Saturated(0.02) {
		t.Fatal("full completion marked saturated")
	}
	p.Completed = 900
	if !p.Saturated(0.02) {
		t.Fatal("10% shortfall not marked saturated")
	}
	if (SweepPoint{}).Saturated(0.02) {
		t.Fatal("empty point marked saturated")
	}
}

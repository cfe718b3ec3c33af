package load

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Count() != 0 || s.Mean() != 0 || s.Median() != 0 || s.Max() != 0 {
		t.Fatalf("empty sample should report zeros: %+v", s.Summarize())
	}
}

func TestSampleMoments(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 2, 3, 4, 5})
	if got := s.Mean(); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Variance(); !almostEqual(got, 2, 1e-9) {
		t.Errorf("Variance = %v, want 2", got)
	}
	if got := s.StdDev(); !almostEqual(got, math.Sqrt2, 1e-9) {
		t.Errorf("StdDev = %v, want sqrt(2)", got)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSampleMinMaxOrderIndependent(t *testing.T) {
	var s Sample
	s.AddAll([]float64{5, -2, 9, 3.5})
	if s.Min() != -2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want -2/9", s.Min(), s.Max())
	}
	s.Add(-10) // after a sorted read, invalidates cache
	if s.Min() != -10 {
		t.Fatalf("min after append = %v, want -10", s.Min())
	}
}

func TestRelVariancePct(t *testing.T) {
	var s Sample
	s.AddAll([]float64{10, 10, 10})
	if got := s.RelVariancePct(); got != 0 {
		t.Errorf("constant sample rel variance = %v, want 0", got)
	}
	var b Sample
	b.AddAll([]float64{0, 20}) // mean 10, var 100 => 100%
	if got := b.RelVariancePct(); !almostEqual(got, 100, 1e-9) {
		t.Errorf("rel variance = %v, want 100", got)
	}
}

func TestSampleReset(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 2, 3})
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 {
		t.Fatalf("reset sample not empty")
	}
	s.Add(7)
	if s.Mean() != 7 {
		t.Fatalf("sample unusable after reset")
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Add(v)
		}
		a := float64(pa) / 255 * 100
		b := float64(pb) / 255 * 100
		if a > b {
			a, b = b, a
		}
		va, vb := s.Percentile(a), s.Percentile(b)
		return va <= vb+1e-9 && va >= s.Min()-1e-9 && vb <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is invariant under permutation and equals sum/n.
func TestMeanMatchesSortedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]float64, n)
		var sum float64
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
			sum += vals[i]
		}
		var s Sample
		s.AddAll(vals)
		if !almostEqual(s.Mean(), sum/float64(n), 1e-6) {
			t.Fatalf("mean mismatch at trial %d", trial)
		}
		sorted := s.Values()
		if !sort.Float64sAreSorted(sorted) {
			t.Fatalf("Values() not sorted")
		}
	}
}

func TestTimeSeriesTimeAverage(t *testing.T) {
	var ts TimeSeries
	ts.Append(0, 10)
	ts.Append(1, 30) // 10 held for [0,1)
	ts.Append(3, 0)  // 30 held for [1,3)
	// area = 10*1 + 30*2 = 70 over span 3
	if got := ts.TimeAverage(); !almostEqual(got, 70.0/3, 1e-9) {
		t.Errorf("TimeAverage = %v, want %v", got, 70.0/3)
	}
	if ts.MaxValue() != 30 {
		t.Errorf("MaxValue = %v, want 30", ts.MaxValue())
	}
}

func TestTimeSeriesMonotonePanic(t *testing.T) {
	var ts TimeSeries
	ts.Append(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on decreasing time")
		}
	}()
	ts.Append(4, 1)
}

func TestSummaryString(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 2, 3})
	if got := s.Summarize().String(); got == "" {
		t.Fatal("empty summary string")
	}
}

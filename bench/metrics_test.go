package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

// The reported tail is the highest level with at least ten samples
// beyond it.
func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %g, want 0.2", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %g, want 0", got)
	}
}

// iqrShare must agree with Python's statistics.quantiles(v, n=4).
func TestIQRShare(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // quartiles 2.75, 5.5, 8.25
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %g, want %g", got, want)
	}
	if got, want := iqrShare([]float64{1, 2}), (2.25-0.75)/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare of two = %g, want %g", got, want)
	}
}

func TestSegmentSpread(t *testing.T) {
	d := 3 * time.Second
	var r connResult
	add := func(seg, n int, latency int64) {
		for i := 0; i < n; i++ {
			r.samples = append(r.samples, sample{end: int64(seg)*int64(time.Second) + int64(i), latency: latency})
		}
	}
	add(0, 90, 1000)
	add(1, 100, 2000)
	add(2, 110, 3000)
	// A request completing after the window closes belongs to the last segment.
	r.samples = append(r.samples, sample{end: d.Nanoseconds() + 5, latency: 3000})
	rate, p50 := segmentSpread([]connResult{r}, d)
	if want := (111.0 - 90) / 100; math.Abs(rate-want) > 1e-12 {
		t.Errorf("rate spread = %g, want %g", rate, want)
	}
	if math.Abs(p50-1.0) > 1e-12 {
		t.Errorf("p50 spread = %g, want 1", p50)
	}
}

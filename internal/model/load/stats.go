package load

// The statistical primitives behind the recorders and the experiment
// harnesses: streaming summaries, exact percentiles over collected
// samples, and time series. The experiment drivers report the same
// statistics the paper plots: median, p5/p95 error bars, p99, p99.5,
// mean, and relative variance (coefficient-of-variation style
// percentages as used in §7.6).

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers percentile and
// moment queries. The zero value is ready to use. Sample is not safe for
// concurrent use; wrap it with a mutex or use one per goroutine.
type Sample struct {
	values []float64
	sorted bool
	sum    float64
	sumSq  float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
	s.sum += v
	s.sumSq += v * v
}

// AddAll records every observation in vs.
func (s *Sample) AddAll(vs []float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Count reports the number of recorded observations.
func (s *Sample) Count() int { return len(s.values) }

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Variance reports the population variance, or 0 for an empty sample.
func (s *Sample) Variance() float64 {
	n := float64(len(s.values))
	if n == 0 {
		return 0
	}
	m := s.sum / n
	v := s.sumSq/n - m*m
	if v < 0 { // numeric noise
		v = 0
	}
	return v
}

// StdDev reports the population standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// RelVariancePct reports variance relative to the squared mean as a
// percentage, the "relative variance" metric quoted in §7.6 of the paper
// (e.g. Firecracker log processing at 1495%).
func (s *Sample) RelVariancePct() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return 100 * s.Variance() / (m * m)
}

// Min reports the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[0]
}

// Max reports the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Percentile reports the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. An empty sample reports 0.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.ensureSorted()
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median reports the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Values returns a copy of the recorded observations in sorted order.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Reset discards all observations, retaining allocated capacity.
func (s *Sample) Reset() {
	s.values = s.values[:0]
	s.sum, s.sumSq = 0, 0
	s.sorted = true
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Summary is a value-type snapshot of the statistics of a Sample,
// convenient for tabular experiment output.
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	P5     float64
	P95    float64
	P99    float64
	P995   float64
	Min    float64
	Max    float64
	StdDev float64
	// RelVarPct is variance relative to squared mean, in percent.
	RelVarPct float64
}

// Summarize computes a Summary snapshot of s.
func (s *Sample) Summarize() Summary {
	return Summary{
		Count:     s.Count(),
		Mean:      s.Mean(),
		Median:    s.Median(),
		P5:        s.Percentile(5),
		P95:       s.Percentile(95),
		P99:       s.Percentile(99),
		P995:      s.Percentile(99.5),
		Min:       s.Min(),
		Max:       s.Max(),
		StdDev:    s.StdDev(),
		RelVarPct: s.RelVariancePct(),
	}
}

// String formats the summary on one line with millisecond-style precision.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		sm.Count, sm.Mean, sm.Median, sm.P95, sm.P99, sm.Max)
}

// TimeSeries records (time, value) points and supports integral and mean
// queries, used for committed-memory-over-time plots (Figures 1 and 10).
type TimeSeries struct {
	Times  []float64
	Values []float64
}

// Append adds a point; times must be non-decreasing.
func (ts *TimeSeries) Append(t, v float64) {
	if n := len(ts.Times); n > 0 && t < ts.Times[n-1] {
		panic("stats: time series times must be non-decreasing")
	}
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Len reports the number of points.
func (ts *TimeSeries) Len() int { return len(ts.Times) }

// TimeAverage reports the time-weighted average value assuming each value
// holds until the next sample time (step function). With fewer than two
// points it reports the plain mean.
func (ts *TimeSeries) TimeAverage() float64 {
	n := len(ts.Times)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return ts.Values[0]
	}
	var area, span float64
	for i := 0; i+1 < n; i++ {
		dt := ts.Times[i+1] - ts.Times[i]
		area += ts.Values[i] * dt
		span += dt
	}
	if span == 0 {
		return ts.Values[0]
	}
	return area / span
}

// MaxValue reports the largest value in the series, or 0 when empty.
func (ts *TimeSeries) MaxValue() float64 {
	var m float64
	for i, v := range ts.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

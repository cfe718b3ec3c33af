package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending-sorted sample; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLevels are the percentile levels a latency report may use, in
// rising order, each with the share of samples beyond it as 1/beyond.
var tailLevels = []struct {
	level  float64
	beyond int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailLevel picks the highest level of tailLevels that still has at
// least ten of n samples beyond it — a percentile read off fewer is one
// or two outliers, not a tail. It falls back to the median.
func tailLevel(n int) float64 {
	level := tailLevels[0].level
	for _, l := range tailLevels {
		if n/l.beyond >= 10 {
			level = l.level
		}
	}
	return level
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max-min)/median: how far same-code repeats of one metric
// drift. 0 when the median is 0.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	s := sortedCopy(v)
	return (s[len(s)-1] - s[0]) / m
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(v, n=4) (the exclusive method): the figure the
// benchmark contract judges steadiness by. It needs two values.
func iqrShare(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	s := sortedCopy(v)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based rank, may be fractional
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > len(s)-1 {
			lo = len(s) - 1
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / m
}

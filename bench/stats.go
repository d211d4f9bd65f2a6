package main

import (
	"math"
	"sort"

	"venn/internal/stats"
)

// medianOfSegments applies f to every segment and returns the median of the
// results: the statistic every timed end-to-end metric reports, so that one
// disturbed segment cannot move the figure.
func medianOfSegments[S any](segs []S, f func(S) float64) float64 {
	vals := make([]float64, len(segs))
	for i, s := range segs {
		vals[i] = f(s)
	}
	return stats.Median(vals)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive" method),
// which is the rule the benchmark driver applies to repeat runs.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, clamped to the sample.
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := stats.Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

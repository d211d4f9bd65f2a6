// Package stats provides the small statistics toolkit used across the Venn
// reproduction: summary statistics, percentiles, online moment accumulators,
// and the random samplers (log-normal, exponential, beta mixture, Dirichlet)
// that the trace generators and the response-time model rely on.
//
// Everything is deterministic given a seed; no global random state is used.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It copies and sorts the input.
// An empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for an already ascending-sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileSelect returns what Percentile returns for xs and p, but works
// in place: it reorders xs, which the caller owns, by selection instead of
// copying and sorting it, so one order statistic costs O(len(xs)) expected
// time and no allocation. The order is sort.Float64s's: NaN first, and -0
// ties with +0 (the result then compares == to Percentile's, sign aside).
//
// Percentile stays, unchanged, as the copying form: callers that must keep
// their input's order use it, and bench/ computes its medians with it, so a
// change here cannot move the statistics the benchmark measures the change
// by. Successive calls on the same slice are correct, since each works on
// any permutation of the values.
func PercentileSelect(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	// Put the order statistics PercentileSorted reads where it reads them.
	switch {
	case p <= 0:
		selectNth(xs, 0)
	case p >= 100:
		selectNth(xs, n-1)
	default:
		rank := p / 100 * float64(n-1)
		lo := int(math.Floor(rank))
		selectNth(xs, lo)
		if float64(lo) != rank && lo+1 < n {
			// Nothing in xs[lo+1:] is below xs[lo], and no NaN is after
			// it: the minimum of xs[lo+1:] is the next order statistic.
			m := lo + 1
			for i := lo + 2; i < n; i++ {
				if xs[i] < xs[m] {
					m = i
				}
			}
			xs[lo+1], xs[m] = xs[m], xs[lo+1]
		}
	}
	return PercentileSorted(xs, p)
}

// selectNth reorders xs so that xs[k] holds the value sort.Float64s would put
// there, with nothing after it below it, and every NaN before it unless it is
// a NaN itself. NaNs go first, in one pass. The rest is Hoare's FIND
// (quickselect with Hoare's partition, which splits runs of equal values
// evenly) around a median-of-three pivot. A range that is small, or still
// large after 2·log2(n) partitions, is sorted outright, which bounds the
// worst case at O(n log n).
func selectNth(xs []float64, k int) {
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	if k < nan {
		return
	}
	xs, k = xs[nan:], k-nan
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); lo < hi; budget-- {
		if hi-lo < 16 || budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		a, p, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if p < a {
			a, p = p, a
		}
		if c < p {
			p = max(a, c)
		}
		// The pivot's own value stops both scans, and after a swap so do
		// the swapped values.
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo:i] <= p <= xs[j+1:hi+1], and xs[j+1:i] (if any) == p.
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

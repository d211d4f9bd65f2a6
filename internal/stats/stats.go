// Package stats provides the small statistics toolkit used across the Venn
// reproduction: summary statistics, percentiles, online moment accumulators,
// and the random samplers (log-normal, exponential, beta mixture, Dirichlet)
// that the trace generators and the response-time model rely on.
//
// Everything is deterministic given a seed; no global random state is used.
package stats

import (
	"fmt"
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

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

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

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

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

// GeoMean returns the geometric mean of xs; all values must be positive.
// Non-positive values are skipped. An empty (or all-skipped) input yields 0.
func GeoMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Summary holds the descriptive statistics of one sample set.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		Count:  len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		P25:    PercentileSorted(sorted, 25),
		Median: PercentileSorted(sorted, 50),
		P75:    PercentileSorted(sorted, 75),
		P95:    PercentileSorted(sorted, 95),
		P99:    PercentileSorted(sorted, 99),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p95=%.3f max=%.3f",
		s.Count, s.Mean, s.StdDev, s.Min, s.Median, s.P95, s.Max)
}

// Online accumulates streaming mean/variance using Welford's algorithm and
// tracks min/max. The zero value is ready to use.
type Online struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates x into the accumulator.
func (o *Online) Add(x float64) {
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.n++
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// Count returns the number of observations.
func (o *Online) Count() int { return o.n }

// Mean returns the running mean, or 0 when empty.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running population variance.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest observation, or 0 when empty.
func (o *Online) Min() float64 {
	if o.n == 0 {
		return 0
	}
	return o.min
}

// Max returns the largest observation, or 0 when empty.
func (o *Online) Max() float64 {
	if o.n == 0 {
		return 0
	}
	return o.max
}

// Merge folds other into o, as if every observation of other had been Added.
func (o *Online) Merge(other *Online) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *other
		return
	}
	n := o.n + other.n
	delta := other.mean - o.mean
	mean := o.mean + delta*float64(other.n)/float64(n)
	m2 := o.m2 + other.m2 + delta*delta*float64(o.n)*float64(other.n)/float64(n)
	if other.min < o.min {
		o.min = other.min
	}
	if other.max > o.max {
		o.max = other.max
	}
	o.n, o.mean, o.m2 = n, mean, m2
}

// Package obs is the request-path observability layer: lock-free
// power-of-two latency histograms, per-request stage spans with trace IDs
// that propagate across federation hops, a flight recorder retaining the
// slowest sampled requests with their full stage breakdowns, and a
// Prometheus text-format exposition writer (plus the strict validator CI
// lints the endpoint with).
//
// The design splits the cost into an always-on path and a sampled path. The
// always-on path is one histogram observation per served request — two
// atomic adds, no locks, no allocation — which replaces the old mutex-ringed
// route latency tracker. Everything richer (per-stage timestamps, flight
// records, trace propagation) only happens on spans, and spans exist for 1
// in SampleEvery requests; a nil *Span is valid everywhere and every method
// on it no-ops, so unsampled requests pay a nil check per instrumentation
// point and nothing else.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets power-of-two buckets: bucket i counts observations in
// [2^(i-1), 2^i) nanoseconds (bucket 0 counts sub-nanosecond values), so the
// ladder spans 1ns to ~9 minutes with the last bucket absorbing anything
// slower. Every histogram shares this shape, which is what makes snapshots
// mergeable across ops, stages, and daemons.
const NumBuckets = 40

// Hist is a fixed-shape histogram of nanosecond durations. Observe is two
// atomic adds, so any number of goroutines record into one Hist with no
// locks and no allocation, and Snapshot runs concurrently with writers — it
// may tear across buckets (each counter is individually consistent), which
// for monotonic counters only ever under-reports the newest observations.
type Hist struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
}

func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	if b := bits.Len64(uint64(ns)); b < NumBuckets {
		return b
	}
	return NumBuckets - 1
}

// Observe records one duration in nanoseconds.
func (h *Hist) Observe(ns int64) {
	h.counts[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// Snapshot copies the histogram's counters.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Hist, mergeable with any other
// snapshot of the same shape.
type HistSnapshot struct {
	Counts [NumBuckets]int64
	Sum    int64
}

// Count is the total number of observations.
func (s HistSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// bucketBounds is bucket i's [lo, hi) range in nanoseconds; the last
// bucket's hi is pinned to 2*lo so estimates stay finite.
func bucketBounds(i int) (lo, hi float64) {
	if i > 0 {
		lo = float64(int64(1) << uint(i-1))
	}
	if i < NumBuckets-1 {
		hi = float64(int64(1) << uint(i))
	} else {
		hi = 2 * lo
	}
	return lo, hi
}

// UpperBound is bucket i's exclusive upper bound in nanoseconds; the last
// bucket is unbounded (+Inf), per the Prometheus histogram convention.
func UpperBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(int64(1) << uint(i))
}

// Quantile estimates the q-quantile (q in [0, 1]) in nanoseconds, linearly
// interpolated inside the bucket the rank lands in. Power-of-two buckets
// bound the estimate within 2x of the true value — plenty for "where did
// the time go".
func (s HistSnapshot) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(seen)+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - float64(seen)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		seen += c
	}
	_, hi := bucketBounds(NumBuckets - 1)
	return hi
}

// MaxNs is the upper bound of the highest nonempty bucket — the
// resolution-limited maximum observation.
func (s HistSnapshot) MaxNs() float64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			_, hi := bucketBounds(i)
			return hi
		}
	}
	return 0
}

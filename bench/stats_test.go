package main

import (
	"math"
	"testing"

	"venn/internal/stats"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {99, 39.7},
	} {
		if got := stats.Percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("stats.Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile reordered its input")
	}
	if got := stats.Percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// One disturbed segment must not move a median-of-segments metric.
func TestMedianOfSegments(t *testing.T) {
	segs := []segment{
		{checkIns: 1000, cpu: 1e9}, {checkIns: 1000, cpu: 1e9}, {checkIns: 1000, cpu: 1e9},
		{checkIns: 1000, cpu: 1e9}, {checkIns: 1000, cpu: 5e9}, // a neighbour stole this one
	}
	got := medianOfSegments(segs, func(s segment) float64 { return float64(s.checkIns) / s.cpu.Seconds() })
	if !near(got, 1000) {
		t.Errorf("median of segments = %v, want 1000", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4), the
// rule the benchmark driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 1, 2},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 (5.5 between the quartiles over a median of 5.5)", got)
	}
}

func TestDemandOfSumsToTheFraction(t *testing.T) {
	total := 0
	for k := 0; k < 1000; k++ {
		total += demandOf(k)
	}
	want := demandFrac * demandEvery * batch * 1000
	if math.Abs(float64(total)-want) > 1 {
		t.Errorf("1000 feeder jobs demand %d devices, want %.0f", total, want)
	}
}

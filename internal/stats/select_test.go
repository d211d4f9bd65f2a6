package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// selectPercentiles are the ranks the scheduler asks for (tier cuts at V = 3
// and the p95s) plus both ends and the median.
var selectPercentiles = []float64{0, 100.0 / 3, 50, 200.0 / 3, 95, 100}

// sameValue is the equality PercentileSelect promises: ==, or both NaN.
func sameValue(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// checkSelect compares PercentileSelect with Percentile on xs at every rank
// of selectPercentiles, each on a fresh copy and then all in turn on one
// shared buffer, and requires the buffer to stay a permutation of xs.
func checkSelect(t *testing.T, name string, xs []float64) {
	t.Helper()
	shared := slices.Clone(xs)
	for _, p := range selectPercentiles {
		want := Percentile(xs, p)
		if got := PercentileSelect(slices.Clone(xs), p); !sameValue(got, want) {
			t.Fatalf("%s (n=%d): PercentileSelect(p=%v) = %v, Percentile = %v", name, len(xs), p, got, want)
		}
		if got := PercentileSelect(shared, p); !sameValue(got, want) {
			t.Fatalf("%s (n=%d): PercentileSelect(p=%v) on a reused buffer = %v, Percentile = %v", name, len(xs), p, got, want)
		}
	}
	a, b := slices.Clone(xs), slices.Clone(shared)
	slices.Sort(a)
	slices.Sort(b)
	for i := range a {
		if !sameValue(a[i], b[i]) {
			t.Fatalf("%s (n=%d): the buffer is no longer a permutation of the input", name, len(xs))
		}
	}
}

// TestPercentileSelectMatchesPercentile is the property the scheduler's
// byte-identical outputs rest on: selection returns Percentile's value for
// every length 0–600 and input shape.
func TestPercentileSelectMatchesPercentile(t *testing.T) {
	rng := NewRNG(43)
	nan, inf := math.NaN(), math.Inf(1)
	shapes := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return rng.Float64() }},
		{"duplicates", func(int, int) float64 { return float64(rng.Intn(5)) }},
		{"all-equal", func(int, int) float64 { return 7 }},
		{"sorted", func(i, _ int) float64 { return float64(i) }},
		{"reversed", func(i, n int) float64 { return float64(n - i) }},
		{"signed-zeros", func(int, int) float64 { return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)] }},
		{"infinities", func(int, int) float64 { return []float64{inf, -inf, 0, rng.Float64()}[rng.Intn(4)] }},
		{"nan", func(int, int) float64 { return []float64{nan, 1, 2, -inf, inf, rng.Float64()}[rng.Intn(6)] }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-i)) }},
	}
	for n := 0; n <= 600; n++ {
		for _, sh := range shapes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = sh.gen(i, n)
			}
			checkSelect(t, sh.name, xs)
		}
	}
}

// TestPercentileSelectAllocatesNothing pins the point of the routine.
func TestPercentileSelectAllocatesNothing(t *testing.T) {
	xs := make([]float64, 512)
	rng := NewRNG(1)
	if a := testing.AllocsPerRun(50, func() {
		for i := range xs {
			xs[i] = rng.Float64()
		}
		PercentileSelect(xs, 95)
	}); a != 0 {
		t.Errorf("PercentileSelect allocates %v times per call, want 0", a)
	}
}

// FuzzPercentileSelect feeds arbitrary float bit patterns (every NaN payload,
// ±0, ±Inf, subnormals) through checkSelect.
func FuzzPercentileSelect(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed())
	f.Add(seed(1, 2, 3))
	f.Add(seed(math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 5, 5, 5))
	f.Fuzz(func(t *testing.T, raw []byte) {
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkSelect(t, "fuzz", xs)
	})
}

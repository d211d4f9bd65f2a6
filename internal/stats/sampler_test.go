package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(1)
	c1 := parent.Fork()
	c2 := parent.Fork()
	equal := 0
	for i := 0; i < 50; i++ {
		if c1.Float64() == c2.Float64() {
			equal++
		}
	}
	if equal > 5 {
		t.Errorf("forked streams look identical (%d/50 equal)", equal)
	}
}

func TestUniformBounds(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 1000; i++ {
		x := g.Uniform(3, 7)
		if x < 3 || x >= 7 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestLogNormalMedianP95(t *testing.T) {
	g := NewRNG(3)
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.LogNormalMedianP95(60, 180)
	}
	med := Median(xs)
	p95 := Percentile(xs, 95)
	if math.Abs(med-60)/60 > 0.05 {
		t.Errorf("median = %v, want ~60", med)
	}
	if math.Abs(p95-180)/180 > 0.10 {
		t.Errorf("p95 = %v, want ~180", p95)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(4)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.Exp(42)
	}
	if m := Mean(xs); math.Abs(m-42)/42 > 0.05 {
		t.Errorf("Exp mean = %v, want ~42", m)
	}
}

func TestGammaMoments(t *testing.T) {
	g := NewRNG(6)
	for _, c := range []struct{ shape, scale float64 }{{0.5, 2}, {3, 1.5}, {10, 0.3}} {
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = g.Gamma(c.shape, c.scale)
		}
		wantMean := c.shape * c.scale
		if m := Mean(xs); math.Abs(m-wantMean)/wantMean > 0.05 {
			t.Errorf("Gamma(%v,%v) mean = %v, want %v", c.shape, c.scale, m, wantMean)
		}
	}
	if g.Gamma(0, 1) != 0 || g.Gamma(1, -1) != 0 {
		t.Error("degenerate Gamma must give 0")
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	g := NewRNG(7)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.Beta(2, 5)
		if xs[i] < 0 || xs[i] > 1 {
			t.Fatalf("Beta out of [0,1]: %v", xs[i])
		}
	}
	if m := Mean(xs); math.Abs(m-2.0/7.0) > 0.01 {
		t.Errorf("Beta(2,5) mean = %v, want %v", m, 2.0/7.0)
	}
}

func TestDirichletSumsToOneProperty(t *testing.T) {
	g := NewRNG(8)
	f := func(alphaRaw uint8, kRaw uint8) bool {
		k := int(kRaw%8) + 2
		alpha := 0.1 + float64(alphaRaw)/64
		w := g.DirichletSym(alpha, k)
		if len(w) != k {
			return false
		}
		sum := 0.0
		for _, x := range w {
			if x < 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	g := NewRNG(9)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[g.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight option chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
	// Degenerate weights fall back to uniform.
	if idx := g.WeightedChoice([]float64{0, 0}); idx < 0 || idx > 1 {
		t.Errorf("degenerate WeightedChoice = %d", idx)
	}
}

func TestChoiceAndPerm(t *testing.T) {
	g := NewRNG(11)
	if g.Choice(0) != -1 || g.Choice(-3) != -1 {
		t.Error("Choice of empty must be -1")
	}
	p := g.Perm(6)
	seen := map[int]bool{}
	for _, x := range p {
		seen[x] = true
	}
	if len(seen) != 6 {
		t.Errorf("Perm not a permutation: %v", p)
	}
}

func TestMixSpreadsSeeds(t *testing.T) {
	// Consecutive seeds must produce well-separated internal states.
	s1, s2 := mix(1), mix(2)
	if s1 == s2 {
		t.Error("mix collides on consecutive seeds")
	}
	if s1 < 0 || s2 < 0 {
		t.Error("mix must return non-negative seeds")
	}
}

package core

import (
	"slices"
	"testing"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/stats"
)

func TestRingBounded(t *testing.T) {
	var r ring
	for i := 0; i < sampleCap*2; i++ {
		r.add(float64(i))
	}
	if r.len() != sampleCap || cap(r.buf) != sampleCap {
		t.Fatalf("ring grew to len %d cap %d, want %d", r.len(), cap(r.buf), sampleCap)
	}
	// Oldest values must be gone: the ring now holds the second half.
	minVal := r.buf[0]
	for _, v := range r.buf {
		if v < minVal {
			minVal = v
		}
	}
	if minVal < float64(sampleCap)-1 {
		t.Errorf("old samples not evicted: min=%v", minVal)
	}
}

// grownRing is package-level so its buffer lives on the heap, as a
// profile's does.
var grownRing ring

// TestRingGrowthAllocations: a ring allocates once up to ringFirstCap
// samples, then once per doubling: twice for a 64-response job and five
// times for a full ring.
func TestRingGrowthAllocations(t *testing.T) {
	if ringFirstCap < minProfileSamples {
		t.Fatalf("ringFirstCap %d < minProfileSamples %d", ringFirstCap, minProfileSamples)
	}
	for _, tc := range []struct{ samples, allocs int }{
		{minProfileSamples, 1}, {64, 2}, {sampleCap, 5}, {2 * sampleCap, 5},
	} {
		got := testing.AllocsPerRun(20, func() {
			grownRing = ring{}
			for i := 0; i < tc.samples; i++ {
				grownRing.add(float64(i))
			}
		})
		if int(got) != tc.allocs {
			t.Errorf("%d samples: %v allocations, want %d", tc.samples, got, tc.allocs)
		}
		for i, v := range grownRing.buf {
			if tc.samples <= sampleCap && v != float64(i) {
				t.Fatalf("%d samples: buf[%d] = %v, want %d", tc.samples, i, v, i)
			}
		}
	}
}

func TestTierThresholdsSplitEvenly(t *testing.T) {
	var p profile
	for i := 0; i < 300; i++ {
		p.add(float64(i)/300, 10)
	}
	pf := newProfiler()
	cuts := pf.tierThresholds(&p, 3)
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v", cuts)
	}
	if cuts[0] < 0.25 || cuts[0] > 0.40 || cuts[1] < 0.60 || cuts[1] > 0.75 {
		t.Errorf("cuts %v not near terciles", cuts)
	}
	if pf.tierThresholds(&p, 1) != nil {
		t.Error("V=1 must have no cuts")
	}
	var empty profile
	if pf.tierThresholds(&empty, 3) != nil {
		t.Error("empty profile must have no cuts")
	}
}

func TestTierOf(t *testing.T) {
	cuts := []float64{0.3, 0.7}
	cases := []struct {
		cap  float64
		want int
	}{{0.1, 0}, {0.3, 1}, {0.5, 1}, {0.7, 2}, {0.9, 2}}
	for _, c := range cases {
		if got := tierOf(c.cap, cuts); got != c.want {
			t.Errorf("tierOf(%v) = %d, want %d", c.cap, got, c.want)
		}
	}
	if tierOf(0.5, nil) != 0 {
		t.Error("no cuts means tier 0")
	}
}

func TestSpeedupFasterTierBelowOne(t *testing.T) {
	// Response duration inversely correlated with capability.
	var p profile
	rng := stats.NewRNG(1)
	for i := 0; i < 400; i++ {
		capability := rng.Float64()
		dur := 100 * (1.5 - capability) * rng.Uniform(0.9, 1.1)
		p.add(capability, dur)
	}
	pf := newProfiler()
	cuts := slices.Clone(pf.tierThresholds(&p, 3))
	all := pf.p95All(&p)
	gFast := pf.speedup(&p, 2, cuts, all)
	gSlow := pf.speedup(&p, 0, cuts, all)
	if gFast >= 1 {
		t.Errorf("fast tier speedup = %v, want < 1", gFast)
	}
	if gSlow <= gFast {
		t.Errorf("slow tier (%v) must be slower than fast tier (%v)", gSlow, gFast)
	}
}

func TestSpeedupNeedsSamples(t *testing.T) {
	var p profile
	p.add(0.5, 100)
	pf := newProfiler()
	if g := pf.speedup(&p, 0, []float64{0.5}, pf.p95All(&p)); g != 1 {
		t.Errorf("immature profile speedup = %v, want 1", g)
	}
}

func TestProfilerPrefersMatureJobProfile(t *testing.T) {
	pf := newProfiler()
	if pf.forJob(1) != nil {
		t.Fatal("empty profiler must return nil")
	}
	// Global data only.
	for i := 0; i < minProfileSamples+5; i++ {
		pf.observe(2, 0.5, 100)
	}
	if pf.forJob(1) == nil {
		t.Fatal("global profile must back an unknown job")
	}
	// Job 1 matures.
	const mature = minProfileSamples + 2
	for i := 0; i < mature; i++ {
		pf.observe(1, 0.9, 20)
	}
	prof := pf.forJob(1)
	if prof == nil || prof.count() != mature {
		t.Fatalf("job profile not used (count=%d)", prof.count())
	}
	pf.drop(1)
	if got := pf.forJob(1); got == nil || got.count() == mature {
		t.Error("drop must fall back to global")
	}
}

func TestP95Tier(t *testing.T) {
	var p profile
	for i := 0; i < 100; i++ {
		p.add(0.2, 200) // slow tier
		p.add(0.8, 50)  // fast tier
	}
	cuts := []float64{0.5}
	pf := newProfiler()
	p95, n := pf.p95Tier(&p, 1, cuts)
	if n != 100 || p95 != 50 {
		t.Errorf("fast tier p95 = %v (n=%d)", p95, n)
	}
	p95, n = pf.p95Tier(&p, 0, cuts)
	if n != 100 || p95 != 200 {
		t.Errorf("slow tier p95 = %v (n=%d)", p95, n)
	}
	if _, n := pf.p95Tier(&p, 5, cuts); n != 0 {
		t.Error("nonexistent tier must have no samples")
	}
}

// BenchmarkDecideTier times Algorithm 2's decision for one opened request,
// V = 3, on full profiles: the job's 512 responses make both its own
// profile and the global one full, so every call selects the tier cuts and
// the p95s over 512 samples.
func BenchmarkDecideTier(b *testing.B) {
	v := New(Options{Tiers: 3})
	grid := device.NewGrid(device.Categories())
	v.Bind(&sim.Env{
		Grid:          grid,
		CellPriorRate: []float64{40, 20, 20, 10},
		RNG:           stats.NewRNG(1),
		Jobs:          map[job.ID]*job.Job{},
		IdlePerCell:   make([]int, grid.NumCells()),
	})
	j := job.New(0, device.General, 50, 3, 0)
	j.Start(0)
	rng := stats.NewRNG(2)
	for i := 0; i < sampleCap; i++ {
		capability := rng.Float64()
		v.profiles.observe(j.ID, capability, 100*(1.5-capability)*rng.Uniform(0.9, 1.1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.decideTier(j, 0)
	}
}

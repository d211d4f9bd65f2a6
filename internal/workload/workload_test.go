package workload

import (
	"slices"
	"testing"

	"venn/internal/device"
	"venn/internal/simtime"
)

func TestGenerateBasics(t *testing.T) {
	wl := Generate(Config{NumJobs: 30, Seed: 1})
	if len(wl.Jobs) != 30 {
		t.Fatalf("got %d jobs", len(wl.Jobs))
	}
	seen := map[int]bool{}
	var last simtime.Time = -1
	for _, j := range wl.Jobs {
		if seen[int(j.ID)] {
			t.Fatalf("duplicate job ID %d", j.ID)
		}
		seen[int(j.ID)] = true
		if j.Arrival < last {
			t.Fatal("arrivals must be non-decreasing")
		}
		last = j.Arrival
		if j.Demand < 5 || j.Demand > 300 {
			t.Errorf("demand %d outside default clamps", j.Demand)
		}
		if j.Rounds < 2 || j.Rounds > 40 {
			t.Errorf("rounds %d outside default clamps", j.Rounds)
		}
		if j.TaskScale < 0.6 || j.TaskScale > 1.6 {
			t.Errorf("TaskScale %v outside defaults", j.TaskScale)
		}
		if !slices.ContainsFunc(device.Categories(), func(c device.Requirement) bool { return c.Key() == j.Requirement.Key() }) {
			t.Errorf("job mapped to non-standard requirement %v", j.Requirement)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{NumJobs: 20, Seed: 5})
	b := Generate(Config{NumJobs: 20, Seed: 5})
	for i := range a.Jobs {
		if a.Jobs[i].Demand != b.Jobs[i].Demand ||
			a.Jobs[i].Rounds != b.Jobs[i].Rounds ||
			a.Jobs[i].Arrival != b.Jobs[i].Arrival ||
			a.Jobs[i].Requirement.Name != b.Jobs[i].Requirement.Name {
			t.Fatal("same seed must reproduce the workload")
		}
	}
	c := Generate(Config{NumJobs: 20, Seed: 6})
	diff := false
	for i := range a.Jobs {
		if a.Jobs[i].Demand != c.Jobs[i].Demand || a.Jobs[i].Arrival != c.Jobs[i].Arrival {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should differ")
	}
}

func TestScenarioSplitsBehave(t *testing.T) {
	small := Generate(Config{Scenario: Small, NumJobs: 200, Seed: 2})
	large := Generate(Config{Scenario: Large, NumJobs: 200, Seed: 2})
	avgTotal := func(w *Workload) float64 {
		s := 0.0
		for _, j := range w.Jobs {
			s += float64(j.TotalDemand())
		}
		return s / float64(len(w.Jobs))
	}
	if avgTotal(small) >= avgTotal(large) {
		t.Errorf("Small avg total %v must be below Large %v", avgTotal(small), avgTotal(large))
	}
	low := Generate(Config{Scenario: Low, NumJobs: 200, Seed: 2})
	high := Generate(Config{Scenario: High, NumJobs: 200, Seed: 2})
	avgDemand := func(w *Workload) float64 {
		s := 0.0
		for _, j := range w.Jobs {
			s += float64(j.Demand)
		}
		return s / float64(len(w.Jobs))
	}
	if avgDemand(low) >= avgDemand(high) {
		t.Errorf("Low avg demand %v must be below High %v", avgDemand(low), avgDemand(high))
	}
}

func TestBiasSkewsCategories(t *testing.T) {
	wl := Generate(Config{Bias: BiasCompute, NumJobs: 400, Seed: 3})
	counts := map[string]int{}
	for _, j := range wl.Jobs {
		counts[j.Requirement.Name]++
	}
	if frac := float64(counts["Compute-Rich"]) / 400; frac < 0.4 || frac > 0.6 {
		t.Errorf("Compute-Rich fraction %.2f, want ~0.5", frac)
	}
	for _, other := range []string{"General", "Memory-Rich", "High-Perf"} {
		if frac := float64(counts[other]) / 400; frac < 0.08 || frac > 0.28 {
			t.Errorf("%s fraction %.2f, want ~1/6", other, frac)
		}
	}
}

func TestFixedOverrides(t *testing.T) {
	req := device.MemoryRich
	wl := Generate(Config{NumJobs: 10, Seed: 4, FixedReq: &req, FixedDemand: 42, FixedRounds: 7})
	for _, j := range wl.Jobs {
		if j.Requirement.Name != "Memory-Rich" || j.Demand != 42 || j.Rounds != 7 {
			t.Fatalf("fixed overrides ignored: %v", j)
		}
	}
}

func TestCloneIsDeepForJobState(t *testing.T) {
	wl := Generate(Config{NumJobs: 5, Seed: 5})
	cl := wl.Clone()
	cl.Jobs[0].Start(cl.Jobs[0].Arrival)
	if wl.Jobs[0].State() == cl.Jobs[0].State() {
		t.Error("Clone must not share job state")
	}
	for i, j := range wl.Jobs {
		if j.TotalDemand() != cl.Jobs[i].TotalDemand() {
			t.Error("Clone must preserve demands")
		}
	}
}

func TestMeanInterArrival(t *testing.T) {
	wl := Generate(Config{NumJobs: 2000, Seed: 6, MeanInterArrival: 10 * simtime.Minute})
	span := wl.Jobs[len(wl.Jobs)-1].Arrival.Sub(wl.Jobs[0].Arrival)
	mean := span.Minutes() / float64(len(wl.Jobs)-1)
	if mean < 8 || mean > 12 {
		t.Errorf("mean inter-arrival %.1f min, want ~10", mean)
	}
}

func TestScenarioAndBiasStrings(t *testing.T) {
	if Even.String() != "Even" || High.String() != "High" {
		t.Error("scenario strings")
	}
	if BiasResource.String() != "Resource-heavy" || NoBias.String() != "Unbiased" {
		t.Error("bias strings")
	}
	if len(Scenarios()) != 5 {
		t.Error("Scenarios size")
	}
}

func TestScaleClamp(t *testing.T) {
	if scaleClamp(4000, 0.01, 2, 40) != 40 {
		t.Error("upper clamp")
	}
	if scaleClamp(10, 0.01, 2, 40) != 2 {
		t.Error("lower clamp")
	}
	if scaleClamp(1000, 0.01, 2, 40) != 10 {
		t.Error("proportional scaling")
	}
}

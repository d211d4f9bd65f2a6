package venn

import (
	"testing"

	"venn/internal/core"
)

func TestPublicAPIQuickstart(t *testing.T) {
	fleet := GenerateFleet(FleetConfig{NumDevices: 800, Seed: 1})
	wl := GenerateWorkload(WorkloadConfig{NumJobs: 8, Seed: 2, MaxRounds: 5, MaxDemand: 40})
	random, err := Simulate(SimConfig{Fleet: fleet, Workload: wl, Scheduler: NewRandom(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vn, err := Simulate(SimConfig{Fleet: fleet, Workload: wl, Scheduler: NewVenn(SchedulerOptions{}), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if random.CompletionRate() < 0.5 || vn.CompletionRate() < 0.5 {
		t.Fatalf("too few completions: random %v venn %v", random, vn)
	}
	if sp := vn.SpeedupOver(random); sp <= 0 {
		t.Errorf("speedup = %v", sp)
	}
}

// NewVenn defaults only Tiers and MinProfileSamples: a caller's
// DisableIncrementalPlan must reach the core, so every plan refresh is a
// full rebuild and none is a patch.
func TestNewVennKeepsDisableIncrementalPlan(t *testing.T) {
	fleet := GenerateFleet(FleetConfig{NumDevices: 800, Seed: 1})
	wl := GenerateWorkload(WorkloadConfig{NumJobs: 8, Seed: 2, MaxRounds: 5, MaxDemand: 40})
	s := NewVenn(SchedulerOptions{DisableIncrementalPlan: true})
	if _, err := Simulate(SimConfig{Fleet: fleet, Workload: wl, Scheduler: s, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	v := s.(*core.Venn)
	if v.PlanRebuilds == 0 {
		t.Fatal("no plan was built")
	}
	if v.PlanPatches != 0 {
		t.Errorf("DisableIncrementalPlan was dropped: %d rebuilds, %d patches", v.PlanRebuilds, v.PlanPatches)
	}
}

func TestPublicAPIHandBuiltJobs(t *testing.T) {
	fleet := GenerateFleet(FleetConfig{NumDevices: 500, Seed: 4})
	jobs := []*Job{
		NewJob(0, General, 10, 2, 0),
		NewJob(1, HighPerf, 5, 2, 10*Minute),
	}
	rounds := 0
	obs := func(j *Job, round int, parts []DeviceID, now Time) { rounds++ }
	res, err := Simulate(SimConfig{
		Fleet: fleet, Jobs: jobs, Scheduler: NewVenn(SchedulerOptions{}),
		Seed: 5, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 2 {
		t.Fatalf("jobs incomplete: %v", res)
	}
	if rounds != 4 {
		t.Errorf("observer saw %d rounds, want 4", rounds)
	}
}

func TestSchedulerConstructors(t *testing.T) {
	for _, c := range []struct {
		s    Scheduler
		name string
	}{
		{NewRandom(), "Random"},
		{NewFIFO(), "FIFO"},
		{NewSRSF(), "SRSF"},
		{NewVenn(SchedulerOptions{}), "Venn"},
		{NewVenn(SchedulerOptions{DisableMatching: true}), "Venn-w/o-match"},
	} {
		if c.s.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.s.Name(), c.name)
		}
	}
}

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

// NewVenn defaults only a zero Tiers: a caller's DisableMatching must reach
// the core, so every opened request runs unfiltered, while zero-value
// options match on the default three tiers.
func TestNewVennKeepsCallerOptions(t *testing.T) {
	fleet := GenerateFleet(FleetConfig{NumDevices: 800, Seed: 1})
	wl := GenerateWorkload(WorkloadConfig{NumJobs: 8, Seed: 2, MaxRounds: 5, MaxDemand: 40})
	// unfiltered runs s and returns how many requests it opened and how
	// many of them ran unfiltered because matching was off.
	unfiltered := func(s Scheduler) (opened, off int) {
		if _, err := Simulate(SimConfig{Fleet: fleet, Workload: wl, Scheduler: s, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		v := s.(*core.Venn)
		for _, n := range v.TierExits {
			opened += n
		}
		return opened, v.TierExits[core.TierExitMatchingDisabled]
	}
	s := NewVenn(SchedulerOptions{DisableMatching: true})
	if s.Name() != "Venn-w/o-match" {
		t.Errorf("Name = %q, want Venn-w/o-match", s.Name())
	}
	if opened, off := unfiltered(s); opened == 0 || off != opened {
		t.Errorf("DisableMatching was dropped: %d of %d requests ran with matching off", off, opened)
	}
	if opened, off := unfiltered(NewVenn(SchedulerOptions{})); off == opened {
		t.Errorf("zero Tiers was not defaulted: all %d requests ran with matching off", opened)
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

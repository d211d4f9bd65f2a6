package server

import (
	"fmt"
	"testing"

	"venn/internal/core"
	"venn/internal/sched"
	"venn/internal/stats"
)

// TestManagerServesEveryPolicy drives the live manager under every scheduler
// name. Only venn publishes a plan snapshot; under the other three every
// check-in takes the locked path, which no other test serves. Mixed-category
// jobs meet seeded check-in batches on a fixed clock; every assignment is
// checked in again while held (it must be refused) and then reported OK.
func TestManagerServesEveryPolicy(t *testing.T) {
	const jobs = 12
	cats := []string{"General", "High-Perf", "Compute-Rich", "Memory-Rich"}
	for _, name := range sched.Names {
		t.Run(name, func(t *testing.T) {
			m := NewManager(Config{Policy: name, Clock: newFakeClock().now, Seed: 3})
			for i := 0; i < jobs; i++ {
				if _, err := m.RegisterJob(JobSpec{Name: fmt.Sprintf("job-%d", i), Category: cats[i%len(cats)], DemandPerRound: 2 + i%4, Rounds: 1 + i%3}); err != nil {
					t.Fatal(err)
				}
			}
			done := func() int {
				n := 0
				for _, st := range m.Jobs() {
					if st.Assigned > st.DemandPerRound {
						t.Fatalf("job %s holds %d assignments in a round of %d", st.Name, st.Assigned, st.DemandPerRound)
					}
					if st.State == "done" {
						n++
					}
				}
				return n
			}
			rng := stats.NewRNG(5)
			// The fixed clock gives each device one task a day, so every
			// batch is new devices.
			for b := 0; b < 200 && done() < jobs; b++ {
				cis := make([]CheckIn, 32)
				for i := range cis {
					cis[i] = CheckIn{DeviceID: fmt.Sprintf("d%d-%d", b, i), CPU: rng.Float64(), Mem: rng.Float64()}
				}
				var held []CheckIn
				var reports []Report
				for i, res := range m.CheckInBatch(cis) {
					if res.Error != "" {
						t.Fatalf("%s: %s", cis[i].DeviceID, res.Error)
					}
					if res.Assigned {
						held = append(held, cis[i])
						reports = append(reports, Report{DeviceID: cis[i].DeviceID, JobID: res.JobID, OK: true, DurationSeconds: 10})
					}
				}
				done() // no job over-served while its devices are still out
				for i, res := range m.CheckInBatch(held) {
					if res.Assigned || res.Error != ErrDeviceBusy.Error() {
						t.Fatalf("%s holds a task, checked in again: %+v", held[i].DeviceID, res)
					}
				}
				for i, res := range m.ReportBatch(reports) {
					if res.Error != "" {
						t.Fatalf("report %+v: %s", reports[i], res.Error)
					}
				}
			}
			if got := done(); got != jobs {
				t.Fatalf("%d/%d jobs done", got, jobs)
			}
			mt := m.MetricsSnapshot()
			if mt.PolicyPrimary != name {
				t.Errorf("policy_primary = %q, want %q", mt.PolicyPrimary, name)
			}
			if planned := mt.PlanRebuilds + mt.PlanPatches; (planned > 0) != (name == "venn") {
				t.Errorf("%d plan rebuilds and patches under %s; only venn plans", planned, name)
			}
		})
	}
}

// TestManagerKeepsSchedulerOptions holds NewManager to the caller's
// scheduler options: a zero Tiers is core.New's to default, and it must not
// replace the whole struct and silently run full Venn.
func TestManagerKeepsSchedulerOptions(t *testing.T) {
	m := NewManager(Config{Options: core.Options{DisableMatching: true}, Clock: newFakeClock().now})
	if got := m.pol.Name(); got != "Venn-w/o-match" {
		t.Errorf("policy = %q, want Venn-w/o-match", got)
	}
}

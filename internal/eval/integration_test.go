package eval

import (
	"testing"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/simtime"
	"venn/internal/trace"
	"venn/internal/workload"
)

// TestSchedulerInvariants replays one workload under every scheduler and
// checks cross-module accounting invariants that no unit test can see:
// round records vs engine counters, JCT consistency, and participant
// uniqueness per attempt.
func TestSchedulerInvariants(t *testing.T) {
	fleet := trace.GenerateFleet(trace.FleetConfig{NumDevices: 1200, Horizon: 3 * simtime.Day, Seed: 17})
	wl := workload.Generate(workload.Config{NumJobs: 12, Seed: 18, MaxRounds: 6, MaxDemand: 60})

	for name, factory := range StandardSchedulers() {
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			// Track per-round participants for uniqueness.
			type roundKey struct {
				id    job.ID
				round int
			}
			seenRounds := map[roundKey]bool{}
			obs := func(j *job.Job, round int, parts []device.ID, now simtime.Time) {
				k := roundKey{j.ID, round}
				if seenRounds[k] {
					t.Errorf("round %v observed twice", k)
				}
				seenRounds[k] = true
				uniq := map[device.ID]bool{}
				for _, p := range parts {
					if uniq[p] {
						t.Errorf("%s job %d round %d: duplicate participant %d", name, j.ID, round, p)
					}
					uniq[p] = true
				}
				if len(parts) < j.TargetResponses() {
					t.Errorf("%s job %d round %d: %d participants < target %d",
						name, j.ID, round, len(parts), j.TargetResponses())
				}
			}
			res, err := RunOne(fleet, wl, factory, 19, obs)
			if err != nil {
				t.Fatal(err)
			}
			if res.CompletionRate() < 0.5 {
				t.Fatalf("%s completed only %.0f%%", name, 100*res.CompletionRate())
			}

			totalAttemptAssigned := 0
			for _, j := range res.Completed {
				recs := j.Records()
				if len(recs) != j.Rounds {
					t.Errorf("job %d: %d round records, want %d", j.ID, len(recs), j.Rounds)
				}
				var prevEnd simtime.Time
				for i, rec := range recs {
					if rec.Round != i+1 {
						t.Errorf("job %d: record %d has round %d", j.ID, i, rec.Round)
					}
					if rec.Start < prevEnd {
						t.Errorf("job %d: round %d starts before previous ended", j.ID, rec.Round)
					}
					if rec.End < rec.Start {
						t.Errorf("job %d: round %d ends before it starts", j.ID, rec.Round)
					}
					prevEnd = rec.End
					if len(rec.Attempts) == 0 {
						t.Errorf("job %d round %d: no attempts", j.ID, rec.Round)
					}
					for _, a := range rec.Attempts {
						totalAttemptAssigned += a.Assigned
						if a.SchedulingDelay() < 0 || a.ResponseTime() < 0 {
							t.Errorf("job %d: negative attempt durations %+v", j.ID, a)
						}
						if !a.Aborted && a.Responses < j.TargetResponses() {
							t.Errorf("job %d: successful attempt with %d responses < %d",
								j.ID, a.Responses, j.TargetResponses())
						}
					}
					if !seenRounds[roundKey{j.ID, rec.Round}] {
						t.Errorf("job %d round %d completed without observer callback", j.ID, rec.Round)
					}
				}
				// JCT consistency: completion equals last round end.
				if j.Arrival.Add(j.JCT()) != recs[len(recs)-1].End {
					t.Errorf("job %d: completion %v != last round end %v",
						j.ID, j.Arrival.Add(j.JCT()), recs[len(recs)-1].End)
				}
			}
			// Engine assignments cover at least the fully-assigned
			// attempts of completed jobs (unfinished jobs also consume).
			if res.Assignments < totalAttemptAssigned {
				t.Errorf("engine assignments %d < attempts' assigned %d",
					res.Assignments, totalAttemptAssigned)
			}
			// Response + failure accounting cannot exceed assignments.
			if res.Responses+res.Failures > res.Assignments {
				t.Errorf("responses %d + failures %d > assignments %d",
					res.Responses, res.Failures, res.Assignments)
			}
		})
	}
}

// TestCrossSchedulerJCTSanity verifies that no scheduler produces absurd
// JCTs (negative, or beyond the horizon) on a common workload.
func TestCrossSchedulerJCTSanity(t *testing.T) {
	setup := NewSetup(ScaleQuick, 23)
	cmp, err := Compare(setup, StandardSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	horizon := setup.Fleet.Horizon.Seconds()
	for name, res := range cmp.Results {
		for _, j := range res.Completed {
			sec := j.JCT().Seconds()
			if sec <= 0 || sec > horizon {
				t.Errorf("%s job %d JCT %.0fs outside (0, horizon]", name, j.ID, sec)
			}
		}
	}
}

package eval

import (
	"testing"

	"venn/internal/core"
	"venn/internal/sim"
	"venn/internal/trace"
	"venn/internal/workload"
)

// TestIncrementalPlanMatchesFullRebuild is the differential guard for the
// incremental replanner: the same seeded workload must produce byte-identical
// results whether every plan refresh is structural (DisableIncrementalPlan)
// or refreshes only the dirty groups within an unchanged group set. A stale
// planner input or a missed invalidation shows up as a fingerprint mismatch.
func TestIncrementalPlanMatchesFullRebuild(t *testing.T) {
	type variant struct {
		name string
		opts core.Options
	}
	base := core.DefaultOptions()
	fair := core.DefaultOptions()
	fair.Epsilon = 2 // fairness terms force the all-group input refresh path
	variants := []variant{
		{"default", base},
		{"epsilon", fair},
	}
	for _, seed := range []int64{3, 17} {
		setup := NewSetup(ScaleQuick, seed)
		fleet := trace.GenerateFleet(setup.Fleet)
		wl := workload.Generate(setup.Jobs)
		for _, vr := range variants {
			full := vr.opts
			full.DisableIncrementalPlan = true
			fullRes, err := RunOne(fleet, wl, func() sim.Scheduler { return core.New(full) }, setup.Seed+100, nil)
			if err != nil {
				t.Fatal(err)
			}
			incRes, err := RunOne(fleet, wl, func() sim.Scheduler { return core.New(vr.opts) }, setup.Seed+100, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !equalFingerprint(fingerprintOf(fullRes), fingerprintOf(incRes)) {
				t.Errorf("seed %d %s: incremental replanning diverged from full rebuilds", seed, vr.name)
			}
		}
	}
}

package eval

import (
	"testing"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/trace"
	"venn/internal/workload"
)

func TestFigure3Toy(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	for _, name := range []string{"Random", "SRSF", "Venn"} {
		if res.AvgJCT[name] <= 0 {
			t.Fatalf("%s produced no JCT", name)
		}
	}
	if res.AvgJCT["Venn"] > res.AvgJCT["Random"]+0.01 {
		t.Errorf("toy example: Venn (%.1f) should not be slower than Random (%.1f)",
			res.AvgJCT["Venn"], res.AvgJCT["Random"])
	}
}

func TestFigure2aDiurnal(t *testing.T) {
	res := Figure2a(800, 3)
	if ratio := res.PeakTroughRatio(); ratio < 1.5 {
		t.Errorf("diurnal amplitude too flat: peak/trough = %.2f, want >= 1.5", ratio)
	}
}

func TestFigure8aStrata(t *testing.T) {
	res := Figure8a(3000, 5)
	t.Log("\n" + res.Render())
	gen := res.Fractions["General"]
	hp := res.Fractions["High-Perf"]
	if gen != 1.0 {
		t.Errorf("General must cover all devices, got %.2f", gen)
	}
	if hp <= 0 || hp >= gen {
		t.Errorf("High-Perf fraction %.2f must be positive and below General", hp)
	}
	for _, mid := range []string{"Compute-Rich", "Memory-Rich"} {
		if f := res.Fractions[mid]; f <= hp || f >= gen {
			t.Errorf("%s fraction %.2f must lie strictly between High-Perf %.2f and General %.2f",
				mid, f, hp, gen)
		}
	}
}

func TestFigure5Breakdown(t *testing.T) {
	res, err := Figure5(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if res.SchedDelaySec[20] <= res.RespTimeSec[20] {
		t.Errorf("under contention scheduling delay (%.0fs) should dominate response time (%.0fs)",
			res.SchedDelaySec[20], res.RespTimeSec[20])
	}
}

func TestFigure10Overhead(t *testing.T) {
	res := Figure10()
	t.Log("\n" + res.Render())
	last := res.JobLatency[len(res.JobLatency)-1]
	if last.Milliseconds() > 100 {
		t.Errorf("planning latency at 1000 jobs too high: %v", last)
	}
}

func TestFigure11Ablation(t *testing.T) {
	res, err := Figure11(ScaleQuick, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	for _, sc := range res.Workloads {
		venn, noSched := res.Speedup[sc]["Venn"], res.Speedup[sc]["Venn-w/o-sched"]
		if venn <= 0 {
			t.Errorf("%v: Venn speedup missing", sc)
		}
		// Venn-w/o-sched is the registry's "fifo" policy: IRS ordering must
		// beat FIFO request order on mean JCT, matching intact.
		if venn <= noSched {
			t.Errorf("%v: Venn %.2fx does not beat Venn-w/o-sched %.2fx", sc, venn, noSched)
		}
	}
}

func TestFigure13Tiers(t *testing.T) {
	res, err := Figure13(ScaleQuick, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	for _, v := range res.Tiers {
		if res.Speedup[v] <= 0 {
			t.Errorf("tiers=%d: no speedup recorded", v)
		}
	}
}

func TestFigure14Fairness(t *testing.T) {
	res, err := Figure14(ScaleQuick, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	// At quick scale contention is mild and most jobs already meet their
	// fair share at eps=0, so only sanity-check the sweep here; the
	// paper-shape assertion (attainment rises with eps) lives in the
	// default-scale bench harness.
	for _, eps := range res.Epsilons {
		if res.Speedup[eps] <= 0 {
			t.Errorf("eps=%.0f: no speedup recorded", eps)
		}
		if res.FairShare[eps] < 0 || res.FairShare[eps] > 1 {
			t.Errorf("eps=%.0f: fair-share fraction %.2f out of range", eps, res.FairShare[eps])
		}
	}
}

// TestFairShareCountsUnfinishedJobs pins that a job which never completes is
// a miss, not absent from the denominator: of two submitted jobs, one meets
// its bound and one starves, so attainment is one half.
func TestFairShareCountsUnfinishedJobs(t *testing.T) {
	// One device eligible everywhere, available once an hour over 10 h: a
	// supply rate of 1/h in every category, so a one-round, demand-1 job has
	// sd = 3600 s + 300 s and, with m = 2, a bound of 7800 s.
	fleet := &trace.Fleet{
		Devices:   []*device.Device{device.New(0, 1, 1)},
		Intervals: [][]trace.Interval{make([]trace.Interval, 10)},
		Horizon:   10 * simtime.Hour,
	}
	req := device.Categories()[0]
	met := job.New(0, req, 1, 1, 0)
	met.Start(0)
	met.AddAssignment(0)
	for !met.CanComplete() {
		met.AddResponse(0)
	}
	met.CompleteRound(simtime.Time(0).Add(1000 * simtime.Second))
	starved := job.New(1, req, 1, 1, 0)
	starved.Start(0)
	r := &sim.Result{Completed: []*job.Job{met}, Unfinished: []*job.Job{starved}}

	if got := fairShareFraction(r, fleet, 2); got != 0.5 {
		t.Fatalf("fair-share attainment = %v, want 0.5 (the starved job is a miss)", got)
	}
}

func TestTable1Quick(t *testing.T) {
	res, err := Table1(ScaleQuick, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	for _, sc := range res.Scenarios {
		if res.Speedup[sc]["Venn"] <= 0.8 {
			t.Errorf("%v: Venn speedup %.2f too low", sc, res.Speedup[sc]["Venn"])
		}
	}
	_ = workload.Scenarios()
}

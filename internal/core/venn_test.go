package core

import (
	"testing"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
)

// buildEngine wires a Venn scheduler into a real engine over a hand-made
// fleet, returning both for white-box inspection.
func buildEngine(t *testing.T, v *Venn, fleet *trace.Fleet, jobs []*job.Job) *sim.Engine {
	t.Helper()
	eng, err := sim.NewEngine(sim.Config{
		Fleet:     fleet,
		Jobs:      jobs,
		Scheduler: v,
		Response:  sim.ResponseModel{Median: 5 * simtime.Second, P95: 10 * simtime.Second, DisableFailures: true},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// mixedFleet: devices alternate between high-end and low-end, checking in
// one per minute.
func mixedFleet(n int, horizon simtime.Duration) *trace.Fleet {
	f := &trace.Fleet{Horizon: horizon}
	for i := 0; i < n; i++ {
		var d *device.Device
		if i%2 == 0 {
			d = device.New(device.ID(i), 0.9, 0.9)
		} else {
			d = device.New(device.ID(i), 0.2, 0.2)
		}
		f.Devices = append(f.Devices, d)
		start := simtime.Time(i+1) * simtime.Time(simtime.Minute)
		f.Intervals = append(f.Intervals, []trace.Interval{{Start: start, End: simtime.Time(horizon)}})
	}
	return f
}

func TestVennReservesScarceDevices(t *testing.T) {
	// The toy-example property: a General job (ample supply) must not eat
	// the scarce High-Perf devices while a High-Perf job is waiting.
	fleet := mixedFleet(60, 4*simtime.Hour)
	gen := job.New(0, device.General, 10, 1, 0)
	hp := job.New(1, device.HighPerf, 10, 1, 0)
	v := New(Options{Tiers: 1}) // isolate the IRS component
	eng := buildEngine(t, v, fleet, []*job.Job{gen, hp})
	res := eng.Run()
	if len(res.Completed) != 2 {
		t.Fatalf("both jobs must complete: %v", res)
	}
	// 30 high-end devices serve HP's 10; General rides the low-end.
	// With devices arriving alternately one per minute, HP needs ~20
	// minutes of arrivals (10 high-end) and General ~20 minutes of
	// low-end; if General had consumed high-end devices first, HP's JCT
	// would stretch well beyond 40 minutes.
	hpJCT, _ := res.JobJCT(1)
	if hpJCT > 45*60 {
		t.Errorf("High-Perf job starved: JCT %.0fs", hpJCT)
	}
}

func TestVennSmallestFirstWithinGroup(t *testing.T) {
	fleet := mixedFleet(100, 6*simtime.Hour)
	big := job.New(0, device.General, 30, 1, 0)
	small := job.New(1, device.General, 5, 1, 0)
	v := New(Options{Tiers: 1})
	eng := buildEngine(t, v, fleet, []*job.Job{big, small})
	res := eng.Run()
	smallJCT, ok1 := res.JobJCT(1)
	bigJCT, ok2 := res.JobJCT(0)
	if !ok1 || !ok2 {
		t.Fatalf("both jobs must complete: %v", res)
	}
	if smallJCT >= bigJCT {
		t.Errorf("small job (%.0fs) must finish before the big one (%.0fs)", smallJCT, bigJCT)
	}
}

func TestVennNamesByAblation(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{}, "Venn"},
		{Options{DisableMatching: true}, "Venn-w/o-match"},
	}
	for _, c := range cases {
		if got := New(c.opts).Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestVennPlanRebuildCount(t *testing.T) {
	fleet := mixedFleet(40, 2*simtime.Hour)
	j := job.New(0, device.General, 5, 2, 0)
	v := NewDefault()
	eng := buildEngine(t, v, fleet, []*job.Job{j})
	eng.Run()
	if v.PlanRebuilds == 0 {
		t.Error("the plan must have been rebuilt at least once")
	}
	// Plans are lazy: rebuild count must be far below the assignment
	// count (one rebuild per request event, not per device).
	if v.PlanRebuilds > 20 {
		t.Errorf("too many plan rebuilds: %d", v.PlanRebuilds)
	}
}

// hotPathEnv wires a bound Venn with one open job per requirement category,
// mirroring the assignment benchmark's setup.
func hotPathEnv(t *testing.T, v *Venn, jobsPerCat int) *sim.Env {
	t.Helper()
	grid := device.NewGrid(device.Categories())
	env := &sim.Env{
		Grid:          grid,
		CellPriorRate: []float64{40, 20, 20, 10},
		RNG:           stats.NewRNG(1),
		Jobs:          map[job.ID]*job.Job{},
		IdlePerCell:   make([]int, grid.NumCells()),
	}
	v.Bind(env)
	cats := device.Categories()
	for i := 0; i < jobsPerCat*len(cats); i++ {
		j := job.New(job.ID(i), cats[i%len(cats)], 1000, 3, 0)
		j.Start(0)
		env.Jobs[j.ID] = j
		v.OnJobArrival(j, 0)
		v.OnRequest(j, 0)
	}
	return env
}

// TestAssignCoversLastCell pins the plan-sizing invariant: the cell plan
// always spans Grid.NumCells(), so a device landing in the grid's final cell
// (maximal scores) must be matched, not silently dropped by a short Order.
func TestAssignCoversLastCell(t *testing.T) {
	v := NewDefault()
	env := hotPathEnv(t, v, 1)
	d := device.New(0, 1, 1)
	if cell := env.Grid.CellOfDevice(d); int(cell) != env.Grid.NumCells()-1 {
		t.Fatalf("precondition: device must land in the last cell, got %d/%d", cell, env.Grid.NumCells())
	}
	got := v.Assign(d, 1)
	if got == nil {
		t.Fatal("device in the last grid cell must receive a job")
	}
	if len(v.plan.Owner) != env.Grid.NumCells() {
		t.Errorf("plan covers %d cells, want %d", len(v.plan.Owner), env.Grid.NumCells())
	}
}

// TestAssignHotPathAllocFree guards the assignment fast path against
// allocation regressions: once the plan is built, handing out devices must
// not allocate at all.
func TestAssignHotPathAllocFree(t *testing.T) {
	v := NewDefault()
	hotPathEnv(t, v, 10)
	d := device.New(0, 0.8, 0.8)
	if v.Assign(d, 1) == nil { // warm up: builds the plan
		t.Fatal("no assignment")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if v.Assign(d, 1) == nil {
			t.Fatal("no assignment")
		}
	})
	if allocs != 0 {
		t.Errorf("Assign allocates %.2f objects/op, want 0", allocs)
	}
}

// TestGroupQueueOrderMaintained checks the incremental ordered insertion
// that replaced the per-rebuild sort: jobs must come out smallest adjusted
// demand first regardless of insertion order.
func TestGroupQueueOrderMaintained(t *testing.T) {
	v := New(Options{Tiers: 1})
	grid := device.NewGrid(device.Categories())
	v.Bind(&sim.Env{Grid: grid, CellPriorRate: []float64{10, 10, 10, 10}, Jobs: map[job.ID]*job.Job{}, IdlePerCell: make([]int, grid.NumCells())})
	demands := []int{70, 10, 40, 90, 20, 60, 30}
	jobs := make([]*job.Job, len(demands))
	for i, dm := range demands {
		j := job.New(job.ID(i), device.General, dm, 1, 0)
		j.Start(0)
		jobs[i] = j
		v.OnJobArrival(j, 0)
		v.OnRequest(j, 0)
	}
	g := v.groups[device.General.Key()]
	checkSorted := func() {
		t.Helper()
		for i := 1; i < len(g.jobs); i++ {
			if g.adj[g.jobs[i-1].ID] > g.adj[g.jobs[i].ID] {
				t.Fatalf("queue out of order at %d: %v > %v", i, g.adj[g.jobs[i-1].ID], g.adj[g.jobs[i].ID])
			}
		}
	}
	if len(g.jobs) != len(demands) {
		t.Fatalf("queue holds %d jobs, want %d", len(g.jobs), len(demands))
	}
	checkSorted()
	// Removal from the middle must keep order and fully forget the job,
	// including nilling the vacated tail slot so the pointer is released.
	v.OnJobDone(jobs[2], 1)
	if len(g.jobs) != len(demands)-1 {
		t.Fatalf("queue holds %d jobs after removal, want %d", len(g.jobs), len(demands)-1)
	}
	if _, still := g.adj[jobs[2].ID]; still {
		t.Error("removed job must leave the membership index")
	}
	if tail := g.jobs[:cap(g.jobs)][len(g.jobs)]; tail != nil {
		t.Error("vacated tail slot must be nilled so the job can be collected")
	}
	checkSorted()
}

func TestVennWorkConservation(t *testing.T) {
	// A device eligible only for General must still be used when the only
	// open job is General — and a High-Perf device must serve General
	// jobs when no High-Perf job is waiting (work conservation).
	fleet := mixedFleet(30, 3*simtime.Hour)
	gen := job.New(0, device.General, 12, 1, 0)
	v := NewDefault()
	eng := buildEngine(t, v, fleet, []*job.Job{gen})
	res := eng.Run()
	if len(res.Completed) != 1 {
		t.Fatalf("job must complete: %v", res)
	}
	// 12 demand with devices arriving 1/minute: JCT must be ~12-13 min,
	// meaning high-end devices were used too (not only the 15 low-end).
	jct, _ := res.JobJCT(0)
	if jct > 20*60 {
		t.Errorf("work conservation violated: JCT %.0fs", jct)
	}
}

func TestFairnessAdjustedDemandDirection(t *testing.T) {
	v := New(Options{Epsilon: 2})
	grid := device.NewGrid(device.Categories())
	v.Bind(&sim.Env{Grid: grid, CellPriorRate: []float64{10, 10, 10, 10}, RNG: nil})
	served := job.New(0, device.General, 10, 4, 0)
	served.Start(0)
	starved := job.New(1, device.General, 10, 4, 0)
	starved.Start(0)
	v.OnJobArrival(served, 0)
	v.OnJobArrival(starved, 0)
	// Give `served` lots of service time via completed rounds.
	for i := 0; i < 10; i++ {
		served.AddAssignment(simtime.Time(i))
	}
	for i := 0; i < 8; i++ {
		served.AddResponse(simtime.Time(3600_000 + i))
	}
	served.CompleteRound(simtime.Time(3600_000 + 10)) // one hour of service
	dServed := v.adjustedDemand(served)
	dStarved := v.adjustedDemand(starved)
	if dStarved >= dServed {
		t.Errorf("starved job must look smaller: served=%v starved=%v", dServed, dStarved)
	}
	// Epsilon 0 must reproduce raw remaining service.
	v0 := New(Options{Epsilon: 0})
	v0.Bind(&sim.Env{Grid: grid, CellPriorRate: []float64{10, 10, 10, 10}})
	if got := v0.adjustedDemand(starved); got != float64(starved.RemainingService()) {
		t.Errorf("eps=0 adjusted demand = %v, want %v", got, starved.RemainingService())
	}
}

func TestAdjustedQueueDirection(t *testing.T) {
	v := New(Options{Epsilon: 2})
	grid := device.NewGrid(device.Categories())
	v.Bind(&sim.Env{Grid: grid, CellPriorRate: []float64{10, 10, 10, 10}})
	j1 := job.New(0, device.General, 10, 4, 0)
	j1.Start(0)
	j2 := job.New(1, device.General, 10, 4, 0)
	j2.Start(0)
	v.OnJobArrival(j1, 0)
	v.OnJobArrival(j2, 0)
	qStarved := v.adjustedQueue([]*job.Job{j1, j2})
	if qStarved <= 2 {
		t.Errorf("under-served group queue must be inflated: %v", qStarved)
	}
	v0 := New(Options{})
	if got := v0.adjustedQueue([]*job.Job{j1, j2}); got != 2 {
		t.Errorf("eps=0 queue = %v, want 2", got)
	}
}

func TestClampRatio(t *testing.T) {
	if clampRatio(0) != minFairRatio {
		t.Error("zero must clamp up")
	}
	if clampRatio(1e9) != maxFairRatio {
		t.Error("huge must clamp down")
	}
	if clampRatio(2.5) != 2.5 {
		t.Error("interior must pass through")
	}
}

func TestDecideTierRespectsDisable(t *testing.T) {
	v := New(Options{DisableMatching: true})
	grid := device.NewGrid(device.Categories())
	v.Bind(&sim.Env{Grid: grid, CellPriorRate: []float64{10, 10, 10, 10}})
	j := job.New(0, device.General, 5, 1, 0)
	j.Start(0)
	if f, _ := v.decideTier(j, 0); f != nil {
		t.Error("DisableMatching must suppress tier filters")
	}
	v1 := New(Options{Tiers: 1})
	v1.Bind(&sim.Env{Grid: grid, CellPriorRate: []float64{10, 10, 10, 10}})
	if f, _ := v1.decideTier(j, 0); f != nil {
		t.Error("V=1 must suppress tier filters")
	}
}

func TestTierFilterAccepts(t *testing.T) {
	f := &tierFilter{tier: 1, cuts: []float64{0.5}}
	fast := device.New(0, 1, 1)
	slow := device.New(1, 0, 0)
	if !f.accepts(fast) {
		t.Error("fast device belongs to tier 1")
	}
	if f.accepts(slow) {
		t.Error("slow device is tier 0")
	}
}

func TestAcquireSeconds(t *testing.T) {
	if s := acquireSeconds(10, 20, 5); s != 1 {
		t.Errorf("pool-covered demand = %vs, want 1", s)
	}
	if s := acquireSeconds(10, 0, 10); s != 3600 {
		t.Errorf("rate-limited: %v, want 3600 (10 devices at 10/h)", s)
	}
	if s := acquireSeconds(10, 5, 0); s != 3600 {
		t.Errorf("no rate: %v, want pessimistic 3600", s)
	}
}

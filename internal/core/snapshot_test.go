package core

import (
	"cmp"
	"slices"
	"sync"
	"testing"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
)

// newBoundVenn wires a Venn to a standalone four-cell env (no engine).
func newBoundVenn(opts Options) (*Venn, *sim.Env) {
	v := New(opts)
	grid := device.NewGrid(device.Categories())
	env := &sim.Env{
		Grid:          grid,
		CellPriorRate: []float64{40, 20, 20, 10},
		Jobs:          map[job.ID]*job.Job{},
		RNG:           stats.NewRNG(1),
		IdlePerCell:   make([]int, grid.NumCells()),
	}
	v.Bind(env)
	return v, env
}

// plansEqual compares two cell plans' owners and scarcity orders.
func plansEqual(a, b *CellPlan) bool {
	return slices.Equal(a.Owner, b.Owner) && slices.Equal(a.Order, b.Order)
}

// scratchPlan builds v's plan from nothing at now: it re-collects the
// groups with open requests in requirement-key order, gives each a fresh
// GroupState with its current supply and queue, and runs Algorithm 1 and
// the owner pass on them.
func scratchPlan(v *Venn, now simtime.Time) ([]*vgroup, *CellPlan) {
	numCells := v.env.Grid.NumCells()
	rates := slices.Clone(v.refreshRates(now, numCells))
	var groups []*vgroup
	for _, g := range v.groups {
		if len(g.jobs) > 0 {
			groups = append(groups, g)
		}
	}
	slices.SortFunc(groups, func(a, b *vgroup) int {
		ka, kb := a.req.Key(), b.req.Key()
		if ka.MinCPU != kb.MinCPU {
			return cmp.Compare(ka.MinCPU, kb.MinCPU)
		}
		return cmp.Compare(ka.MinMem, kb.MinMem)
	})
	states := make([]*GroupState, len(groups))
	for i, g := range groups {
		states[i] = &GroupState{Region: g.region, Supply: g.region.WeightedSum(rates), Queue: v.adjustedQueue(g.jobs)}
	}
	ComputeAllocation(states, rates)
	return groups, BuildCellPlan(states, numCells)
}

// TestIncrementalPlanEquivalence drives one scheduler through a randomized
// lifecycle-event sequence and, after every step, demands that the plan it
// serves equals a plan built from scratch. A refresh whose inputs did not
// move republishes the previous plan instead of rerunning Algorithm 1; this
// holds that shortcut sound across group add/remove, queue growth/shrink
// and no-op refreshes, with the fairness knob off and on (ε > 0 makes every
// queue drift with time).
func TestIncrementalPlanEquivalence(t *testing.T) {
	for _, eps := range []float64{0, 2} {
		v, _ := newBoundVenn(Options{Tiers: 1, Epsilon: eps})
		rng := stats.NewRNG(99)
		cats := device.Categories()
		var live []*job.Job
		nextID := 0
		now := simtime.Time(0)

		probe := []*device.Device{
			device.New(1_000_001, 0.9, 0.9),
			device.New(1_000_002, 0.2, 0.8),
			device.New(1_000_003, 0.8, 0.2),
			device.New(1_000_004, 0.1, 0.1),
		}

		step := func() {
			now = now.Add(simtime.Duration(1+rng.Intn(30)) * simtime.Second)
			for _, d := range probe {
				v.Assign(d, now)
			}
			groups, want := scratchPlan(v, now)
			if !slices.Equal(groups, v.planGroups) || !plansEqual(v.plan, want) {
				t.Fatalf("ε=%v: plan diverged from scratch at %v:\nserved=%+v\nscratch=%+v", eps, now, v.plan, want)
			}
		}

		// event applies one random lifecycle event.
		event := func() {
			switch op := rng.Intn(10); {
			case op < 4 || len(live) == 0: // arrive + open request
				req := cats[rng.Intn(len(cats))]
				j := job.New(job.ID(nextID), req, 1+rng.Intn(50), 1+rng.Intn(3), now)
				nextID++
				j.Start(now)
				v.OnJobArrival(j, now)
				v.OnRequest(j, now)
				live = append(live, j)
			case op < 7: // fulfil an open request
				j := live[rng.Intn(len(live))]
				if j.State() != job.StateScheduling {
					return
				}
				for j.State() == job.StateScheduling {
					j.AddAssignment(now)
				}
				v.OnRequestFulfilled(j, now)
			default: // finish a collecting job's round (maybe the whole job)
				k := rng.Intn(len(live))
				j := live[k]
				if j.State() != job.StateCollecting {
					return
				}
				for !j.CanComplete() {
					j.AddResponse(now)
				}
				if j.CompleteRound(now) {
					v.OnJobDone(j, now)
					live = append(live[:k], live[k+1:]...)
				} else {
					v.OnRequest(j, now)
				}
			}
		}
		for i := 0; i < 400; i++ {
			// A step applies one to three events before the next refresh,
			// so a group can leave the plan and another enter between two
			// plans of the same size.
			for n := 1 + rng.Intn(3); n > 0; n-- {
				event()
			}
			step()
		}
		if v.PlanRebuilds == 0 || v.PlanPatches == 0 {
			t.Errorf("ε=%v: both refresh outcomes must occur: %d rebuilds, %d patches", eps, v.PlanRebuilds, v.PlanPatches)
		}
		t.Logf("ε=%v: %d rebuilds + %d patches", eps, v.PlanRebuilds, v.PlanPatches)
	}
}

// TestPlanRebuildsOnGroupSwap swaps one planned group for another between
// two refreshes, so the group set keeps its size and the entering group's
// planner state still holds the supply and queue it last planned with, equal
// to its inputs now. Only the group-set comparison can tell the plans apart.
func TestPlanRebuildsOnGroupSwap(t *testing.T) {
	v, _ := newBoundVenn(Options{Tiers: 1})
	open := func(id job.ID, req device.Requirement, now simtime.Time) *job.Job {
		j := job.New(id, req, 1, 2, now)
		j.Start(now)
		v.OnJobArrival(j, now)
		v.OnRequest(j, now)
		return j
	}
	fulfil := func(j *job.Job, now simtime.Time) {
		j.AddAssignment(now)
		v.OnRequestFulfilled(j, now)
	}
	check := func(now simtime.Time) {
		v.RefreshPlan(now)
		groups, want := scratchPlan(v, now)
		if !slices.Equal(groups, v.planGroups) || !plansEqual(v.plan, want) {
			t.Fatalf("at %v: served plan %+v, scratch %+v", now, v.plan, want)
		}
	}
	general := open(0, device.General, 0)
	high := open(1, device.HighPerf, 0)
	check(1) // plans {General, High-Perf}, one job each
	fulfil(high, 2)
	check(3) // plans {General}
	fulfil(general, 4)
	open(2, device.HighPerf, 4)
	check(5) // plans {High-Perf}: one group, one job, as at the last plan
}

// TestPlanSnapshotMatchesAssign checks the lock-free candidate probe against
// the authoritative Assign on a fresh plan: HasCandidate must be true iff
// Assign hands out a job.
func TestPlanSnapshotMatchesAssign(t *testing.T) {
	v, env := newBoundVenn(Options{Tiers: 1})
	cats := device.Categories()
	for i, c := range cats {
		j := job.New(job.ID(i), c, 5, 1, 0)
		j.Start(0)
		env.Jobs[j.ID] = j
		v.OnJobArrival(j, 0)
		v.OnRequest(j, 0)
	}
	devs := []*device.Device{
		device.New(10, 0.9, 0.9),
		device.New(11, 0.1, 0.9),
		device.New(12, 0.9, 0.1),
		device.New(13, 0.1, 0.1),
	}
	// Freshness requires a published plan: force it.
	v.Assign(devs[0], 1)
	if !v.PlanFresh() {
		t.Fatal("plan must be fresh after Assign")
	}
	snap := v.PlanSnapshot()
	if snap == nil {
		t.Fatal("no snapshot published")
	}
	if snap.OpenRequests() != len(cats) {
		t.Fatalf("snapshot sees %d open requests, want %d", snap.OpenRequests(), len(cats))
	}
	for _, d := range devs {
		got := snap.HasCandidate(d, env.Grid.CellOfDevice(d), 1)
		want := v.Assign(d, 1) != nil
		if got != want {
			t.Errorf("device %v: HasCandidate=%v, Assign=%v", d, got, want)
		}
	}
	// Out-of-range cells never match.
	if snap.HasCandidate(devs[0], device.CellID(snap.NumCells()), 1) {
		t.Error("out-of-range cell must have no candidate")
	}

	// Fulfil everything: the republished snapshot must report empty.
	now := simtime.Time(2)
	for _, j := range env.Jobs {
		for j.State() == job.StateScheduling {
			j.AddAssignment(now)
		}
		v.OnRequestFulfilled(j, now)
	}
	if v.PlanFresh() {
		t.Fatal("lifecycle events must mark the plan stale")
	}
	v.Assign(devs[0], now) // replan + republish
	if !v.PlanFresh() {
		t.Fatal("plan must be fresh again")
	}
	if snap2 := v.PlanSnapshot(); snap2.OpenRequests() != 0 {
		t.Errorf("drained scheduler still advertises %d open requests", snap2.OpenRequests())
	} else if snap2.Epoch() <= snap.Epoch() {
		t.Errorf("epoch must advance: %d -> %d", snap.Epoch(), snap2.Epoch())
	}

	// Overlapping General, Compute-Rich and High-Perf groups: High-Perf owns
	// the high/high cell. Once a tier filter blocks its only job, the device
	// falls back to the scarcer of the other two groups, Compute-Rich, and
	// the probe agrees.
	v, env = newBoundVenn(Options{Tiers: 1})
	jobs := map[device.Requirement]*job.Job{}
	for i, c := range []device.Requirement{device.General, device.ComputeRich, device.HighPerf} {
		j := job.New(job.ID(i), c, 5, 1, 0)
		j.Start(0)
		env.Jobs[j.ID] = j
		v.OnJobArrival(j, 0)
		v.OnRequest(j, 0)
		jobs[c] = j
	}
	d := devs[0]
	if got := v.Assign(d, 1); got != jobs[device.HighPerf] {
		t.Fatalf("unfiltered high/high device got %v, want the High-Perf owner's job", got)
	}
	v.filters[jobs[device.HighPerf].ID] = &tierFilter{tier: 1, cuts: []float64{2}, lapseAt: 100}
	v.planStale.Store(true)
	got := v.Assign(d, 1)
	if got != jobs[device.ComputeRich] {
		t.Errorf("filter-blocked owner: Assign = %v, want the Compute-Rich job", got)
	}
	if has := v.PlanSnapshot().HasCandidate(d, env.Grid.CellOfDevice(d), 1); has != (got != nil) {
		t.Errorf("filter-blocked owner: HasCandidate=%v, Assign=%v", has, got)
	}
}

// TestPlanSnapshotConcurrentReaders hammers the published snapshot from
// hundreds of reader goroutines while the owning goroutine keeps mutating
// job state and replanning — the -race guard for the lock-free read path.
func TestPlanSnapshotConcurrentReaders(t *testing.T) {
	v, env := newBoundVenn(DefaultOptions())
	const readers = 200
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			d := device.New(device.ID(100+r), float64(r%10)/10, float64(r%7)/7)
			cell := env.Grid.CellOfDevice(d)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v.PlanFresh() {
					if s := v.PlanSnapshot(); s != nil {
						s.HasCandidate(d, cell, 1)
						s.OpenRequests()
					}
				}
			}
		}(r)
	}

	// Writer: churn jobs through arrivals, assigns, fulfilments, and
	// completions, replanning constantly.
	rng := stats.NewRNG(7)
	cats := device.Categories()
	now := simtime.Time(0)
	for i := 0; i < 3000; i++ {
		now = now.Add(simtime.Second)
		j := job.New(job.ID(i), cats[i%len(cats)], 1+rng.Intn(3), 1, now)
		j.Start(now)
		v.OnJobArrival(j, now)
		v.OnRequest(j, now)
		d := device.New(device.ID(i%50), rng.Float64(), rng.Float64())
		if got := v.Assign(d, now); got != nil {
			got.AddAssignment(now)
		}
		for j.State() == job.StateScheduling {
			j.AddAssignment(now)
		}
		v.OnRequestFulfilled(j, now)
		for !j.CanComplete() {
			j.AddResponse(now)
		}
		if j.CompleteRound(now) {
			v.OnJobDone(j, now)
		}
		v.Assign(d, now)
	}
	close(stop)
	wg.Wait()
}

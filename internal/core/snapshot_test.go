package core

import (
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

// TestIncrementalPlanEquivalence drives an incremental and a full-rebuild
// scheduler through the same randomized lifecycle-event sequence and demands
// identical cell plans and assignment decisions after every step. This is
// the unit-level counterpart of the eval differential test: it exercises
// group add/remove (structural rebuilds), queue growth/shrink (patches), and
// no-op refreshes, with interleaved assigns forcing a replan at every stage.
func TestIncrementalPlanEquivalence(t *testing.T) {
	inc, _ := newBoundVenn(Options{Tiers: 1})
	full, _ := newBoundVenn(Options{Tiers: 1, DisableIncrementalPlan: true})

	rng := stats.NewRNG(99)
	cats := device.Categories()
	type pair struct{ a, b *job.Job } // same spec, one per scheduler
	var livePairs []pair
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
			ja := inc.Assign(d, now)
			jb := full.Assign(d, now)
			switch {
			case ja == nil && jb == nil:
			case ja == nil || jb == nil || ja.ID != jb.ID:
				t.Fatalf("assign diverged at %v: inc=%v full=%v", now, ja, jb)
			}
		}
		if !plansEqual(inc.plan, full.plan) {
			t.Fatalf("plans diverged at %v:\ninc=%+v\nfull=%+v", now, inc.plan, full.plan)
		}
	}

	for i := 0; i < 400; i++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(livePairs) == 0: // arrive + open request
			req := cats[rng.Intn(len(cats))]
			demand := 1 + rng.Intn(50)
			rounds := 1 + rng.Intn(3)
			a := job.New(job.ID(nextID), req, demand, rounds, now)
			b := job.New(job.ID(nextID), req, demand, rounds, now)
			nextID++
			a.Start(now)
			b.Start(now)
			inc.OnJobArrival(a, now)
			full.OnJobArrival(b, now)
			inc.OnRequest(a, now)
			full.OnRequest(b, now)
			livePairs = append(livePairs, pair{a, b})
		case op < 7: // fulfil an open request
			k := rng.Intn(len(livePairs))
			p := livePairs[k]
			if p.a.State() != job.StateScheduling {
				continue
			}
			for p.a.State() == job.StateScheduling {
				p.a.AddAssignment(now)
				p.b.AddAssignment(now)
			}
			inc.OnRequestFulfilled(p.a, now)
			full.OnRequestFulfilled(p.b, now)
		default: // finish a collecting job's round (maybe the whole job)
			k := rng.Intn(len(livePairs))
			p := livePairs[k]
			if p.a.State() != job.StateCollecting {
				continue
			}
			for !p.a.CanComplete() {
				p.a.AddResponse(now)
				p.b.AddResponse(now)
			}
			doneA := p.a.CompleteRound(now)
			doneB := p.b.CompleteRound(now)
			if doneA != doneB {
				t.Fatal("job lifecycles diverged")
			}
			if doneA {
				inc.OnJobDone(p.a, now)
				full.OnJobDone(p.b, now)
				livePairs = append(livePairs[:k], livePairs[k+1:]...)
			} else {
				inc.OnRequest(p.a, now)
				full.OnRequest(p.b, now)
			}
		}
		step()
	}
	if inc.PlanPatches == 0 {
		t.Error("incremental scheduler never took the patch path")
	}
	if full.PlanPatches != 0 {
		t.Errorf("full-rebuild scheduler must never patch, got %d", full.PlanPatches)
	}
	if inc.PlanRebuilds >= full.PlanRebuilds {
		t.Errorf("incremental path saved no rebuilds: %d vs %d full", inc.PlanRebuilds, full.PlanRebuilds)
	}
	t.Logf("incremental: %d rebuilds + %d patches; full: %d rebuilds",
		inc.PlanRebuilds, inc.PlanPatches, full.PlanRebuilds)
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

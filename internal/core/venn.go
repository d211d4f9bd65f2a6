package core

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
)

// Options configure a Venn scheduler instance.
type Options struct {
	// Tiers is V, the device-tier granularity of Algorithm 2 (default 3;
	// 1 disables tiering).
	Tiers int
	// Epsilon is the fairness knob of §4.4 (0 disables).
	Epsilon float64
	// DisableMatching turns off tier-based matching — the paper's
	// "Venn w/o matching" ablation. (The "Venn w/o scheduling" ablation,
	// FIFO job order with matching kept, is an arm of its own in
	// internal/eval.)
	DisableMatching bool
}

// DefaultOptions returns the configuration used in the end-to-end
// evaluation: 3 tiers, fairness knob off.
func DefaultOptions() Options {
	return Options{Tiers: 3}
}

// vgroup is one resource-homogeneous job group at run time.
type vgroup struct {
	req    device.Requirement
	region device.RegionSet
	// jobs holds the open requests sorted ascending by (adjusted demand,
	// job ID). The sort key is cached in adj at insertion time — a job's
	// adjusted demand only moves on its own lifecycle events (round
	// completion, abort), each of which re-opens the request through
	// OnRequest, so re-keying the one affected job keeps the whole queue
	// ordered without a full re-sort on every plan refresh.
	jobs []*job.Job
	// adj caches each queued job's sort key and doubles as the O(1)
	// membership index that replaced linear containment scans.
	adj   map[job.ID]float64
	state *GroupState
}

// insertJob places j into the group's demand order under sort key d.
func (g *vgroup) insertJob(j *job.Job, d float64) {
	g.adj[j.ID] = d
	i := sort.Search(len(g.jobs), func(k int) bool {
		jk := g.jobs[k]
		if dk := g.adj[jk.ID]; dk != d {
			return dk > d
		}
		return jk.ID > j.ID
	})
	g.jobs = append(g.jobs, nil)
	copy(g.jobs[i+1:], g.jobs[i:])
	g.jobs[i] = j
}

// removeJob deletes the job from the group's demand order, locating it by
// its cached sort key. The vacated tail slot is nilled so completed jobs
// (and their response histories) are released in long-horizon runs.
func (g *vgroup) removeJob(id job.ID) {
	d, ok := g.adj[id]
	if !ok {
		return
	}
	i := sort.Search(len(g.jobs), func(k int) bool {
		jk := g.jobs[k]
		if dk := g.adj[jk.ID]; dk != d {
			return dk > d
		}
		return jk.ID >= id
	})
	if i >= len(g.jobs) || g.jobs[i].ID != id {
		// The cached key went stale (cannot happen while the OnRequest
		// re-keying invariant holds); fall back to a linear scan rather
		// than corrupt the queue.
		i = 0
		for ; i < len(g.jobs); i++ {
			if g.jobs[i].ID == id {
				break
			}
		}
		if i == len(g.jobs) {
			delete(g.adj, id)
			return
		}
	}
	delete(g.adj, id)
	copy(g.jobs[i:], g.jobs[i+1:])
	g.jobs[len(g.jobs)-1] = nil
	g.jobs = g.jobs[:len(g.jobs)-1]
}

// Venn is the paper's CL resource manager. It implements sim.Scheduler.
type Venn struct {
	opts Options
	env  *sim.Env

	groups   map[device.RequirementKey]*vgroup
	filters  map[job.ID]*tierFilter
	profiles *profiler
	sdCache  map[job.ID]simtime.Duration
	fairM    map[job.ID]int
	active   int
	lastNow  simtime.Time

	// planStale is set by every lifecycle event that can invalidate the
	// current plan and cleared when ensurePlan republishes. It is atomic
	// so lock-free snapshot readers can pair it with the published
	// snapshot (see PlanFresh).
	planStale atomic.Bool

	// Last computed plan and the groups it indexes into, sorted by
	// requirement key for deterministic planning order. groupBuf is the
	// spare buffer collectGroups fills before swapping it with planGroups.
	plan       *CellPlan
	planGroups []*vgroup
	groupBuf   []*vgroup

	// Published snapshot state (see snapshot.go).
	snap      atomic.Pointer[PlanSnapshot]
	planEpoch uint64

	// ratePrev holds the cell rates the current plan was computed from.
	ratePrev []float64

	// Reused plan-rebuild buffers.
	stateBuf []*GroupState
	rateBuf  []float64

	// PlanRebuilds counts plan refreshes that ran Algorithm 1 and the owner
	// pass; PlanPatches counts refreshes whose inputs were unchanged, which
	// republished the previous plan. Each refresh counts once.
	PlanRebuilds int
	PlanPatches  int
	// TierExits counts opened requests by the exit decideTier took;
	// TierExits[TierExitFilterApplied] is the requests that ran
	// tier-restricted. The counts sum to the requests opened.
	TierExits [NumTierExits]int
}

// New creates a Venn scheduler with the given options.
func New(opts Options) *Venn {
	if opts.Tiers <= 0 {
		opts.Tiers = 3
	}
	return &Venn{
		opts:     opts,
		groups:   make(map[device.RequirementKey]*vgroup),
		filters:  make(map[job.ID]*tierFilter),
		profiles: newProfiler(),
		sdCache:  make(map[job.ID]simtime.Duration),
		fairM:    make(map[job.ID]int),
	}
}

// NewDefault creates a Venn scheduler with DefaultOptions.
func NewDefault() *Venn { return New(DefaultOptions()) }

// Name implements sim.Scheduler.
func (v *Venn) Name() string {
	if v.opts.DisableMatching {
		return "Venn-w/o-match"
	}
	return "Venn"
}

// Bind implements sim.Scheduler.
func (v *Venn) Bind(env *sim.Env) {
	v.env = env
	v.plan = nil // a new env means a new grid: the next refresh rebuilds
	v.planStale.Store(true)
}

// OnJobArrival implements sim.Scheduler.
func (v *Venn) OnJobArrival(j *job.Job, now simtime.Time) {
	v.lastNow = now
	v.active++
	v.fairM[j.ID] = v.active
	v.soloJCT(j) // prime the no-contention estimate at arrival conditions
}

// OnRequest implements sim.Scheduler.
func (v *Venn) OnRequest(j *job.Job, now simtime.Time) {
	v.lastNow = now
	g := v.ensureGroup(j.Requirement)
	d := v.adjustedDemand(j)
	if old, queued := g.adj[j.ID]; !queued {
		g.insertJob(j, d)
	} else if old != d {
		g.removeJob(j.ID)
		g.insertJob(j, d)
	}
	f, exit := v.decideTier(j, now)
	v.TierExits[exit]++
	if f != nil {
		v.filters[j.ID] = f
	} else {
		delete(v.filters, j.ID)
	}
	v.planStale.Store(true)
}

// OnRequestFulfilled implements sim.Scheduler.
func (v *Venn) OnRequestFulfilled(j *job.Job, now simtime.Time) {
	v.lastNow = now
	v.removeOpen(j)
	v.planStale.Store(true)
}

// OnJobDone implements sim.Scheduler.
func (v *Venn) OnJobDone(j *job.Job, now simtime.Time) {
	v.lastNow = now
	v.active--
	v.removeOpen(j)
	v.profiles.drop(j.ID)
	delete(v.sdCache, j.ID)
	delete(v.fairM, j.ID)
	delete(v.filters, j.ID)
	v.planStale.Store(true)
}

// ObserveResponse implements sim.Scheduler.
func (v *Venn) ObserveResponse(j *job.Job, d *device.Device, dur simtime.Duration, now simtime.Time) {
	v.profiles.observe(j.ID, d.Capability(), dur.Seconds())
}

// Assign implements sim.Scheduler. A device is offered to its cell's
// allocation owner first, then to every other group whose region holds the
// cell in scarcity order, and goes to the first schedulable job that accepts
// it. A device outside a job's tier filter flows on to the next job.
func (v *Venn) Assign(d *device.Device, now simtime.Time) *job.Job {
	v.lastNow = now
	v.ensurePlan(now)
	cell := v.env.Grid.CellOfDevice(d)
	if int(cell) >= len(v.plan.Owner) {
		return nil
	}
	owner := int(v.plan.Owner[cell])
	if owner >= 0 {
		if j := v.firstJob(v.planGroups[owner], d, now); j != nil {
			return j
		}
	}
	for _, gi := range v.plan.Order {
		if g := v.planGroups[gi]; gi != owner && g.region.Has(cell) {
			if j := v.firstJob(g, d, now); j != nil {
				return j
			}
		}
	}
	return nil
}

// firstJob returns the first job in g's queue that can take d now.
func (v *Venn) firstJob(g *vgroup, d *device.Device, now simtime.Time) *job.Job {
	for _, j := range g.jobs {
		if j.State() == job.StateScheduling && j.RemainingDemand() > 0 &&
			j.Requirement.Eligible(d) && v.TierAccepts(j.ID, d, now) {
			return j
		}
	}
	return nil
}

// TierAccepts reports whether job id's tier filter (if any) admits device d
// at time now. It exposes the matching decision to schedulers outside the
// package: Figure 11's FIFO-order ablation (internal/eval) keeps tier-based
// matching in force while replacing the IRS job order, so it forwards the
// lifecycle events to an inner Venn and consults this during its own
// assignment walk.
func (v *Venn) TierAccepts(id job.ID, d *device.Device, now simtime.Time) bool {
	if len(v.filters) == 0 {
		return true
	}
	f := v.filters[id]
	return f == nil || now >= f.lapseAt || f.accepts(d)
}

// ensurePlan lazily refreshes the IRS allocation and cell plan, then
// republishes the snapshot. Nothing stale is the hot path, one atomic load.
// A stale refresh re-collects the planned groups and recomputes every
// group's supply and queue. Algorithm 1 and the owner pass rerun
// (PlanRebuilds) only when the group set, a cell rate or a group's input
// moved; identical inputs reproduce the identical plan, so otherwise the
// previous plan is republished (PlanPatches).
func (v *Venn) ensurePlan(now simtime.Time) {
	if v.plan != nil && !v.planStale.Load() {
		return
	}
	changed := v.collectGroups() || v.plan == nil
	numCells := v.env.Grid.NumCells()
	rates := v.refreshRates(now, numCells)
	changed = changed || !slices.Equal(v.ratePrev, rates)
	for _, g := range v.planGroups {
		sup, q := g.region.WeightedSum(rates), v.adjustedQueue(g.jobs)
		if sup != g.state.Supply || q != g.state.Queue {
			g.state.Supply, g.state.Queue = sup, q
			changed = true
		}
	}
	if changed {
		v.PlanRebuilds++
		v.stateBuf = v.stateBuf[:0]
		for _, g := range v.planGroups {
			v.stateBuf = append(v.stateBuf, g.state)
		}
		ComputeAllocation(v.stateBuf, rates)
		v.plan = BuildCellPlan(v.stateBuf, numCells)
		v.ratePrev = append(v.ratePrev[:0], rates...)
	} else {
		v.PlanPatches++
	}
	v.publishSnapshot()
	v.planStale.Store(false)
}

// refreshRates fills rateBuf with the current per-cell supply estimates.
func (v *Venn) refreshRates(now simtime.Time, numCells int) []float64 {
	if cap(v.rateBuf) < numCells {
		v.rateBuf = make([]float64, numCells)
	}
	rates := v.rateBuf[:numCells]
	useDB := v.env.DB != nil && v.env.DB.HasHistory(now, 6)
	for c := range rates {
		rates[c] = v.env.CellRatePerHour(device.CellID(c), now, useDB)
	}
	return rates
}

// collectGroups gathers the groups with open requests into planGroups,
// sorted by requirement key so planning does not depend on map iteration,
// and reports whether the set differs from the previous refresh's. Each
// group's queue is already ordered by fairness-adjusted remaining demand,
// smallest first (Algorithm 1 line 3): the order is maintained at request
// open and close. It runs on every refresh, so it fills the spare buffer and
// swaps it in rather than allocating.
func (v *Venn) collectGroups() bool {
	next := v.groupBuf[:0]
	for _, g := range v.groups {
		if len(g.jobs) == 0 {
			continue
		}
		if g.state == nil {
			g.state = &GroupState{Region: g.region}
		}
		next = append(next, g)
	}
	slices.SortStableFunc(next, func(a, b *vgroup) int {
		ka, kb := a.req.Key(), b.req.Key()
		if c := cmp.Compare(ka.MinCPU, kb.MinCPU); c != 0 {
			return c
		}
		return cmp.Compare(ka.MinMem, kb.MinMem)
	})
	changed := !slices.Equal(next, v.planGroups)
	v.planGroups, v.groupBuf = next, v.planGroups
	return changed
}

func (v *Venn) ensureGroup(req device.Requirement) *vgroup {
	key := req.Key()
	if g, ok := v.groups[key]; ok {
		return g
	}
	g := &vgroup{
		req:    req,
		region: v.env.Grid.RegionOf(req),
		adj:    make(map[job.ID]float64),
	}
	v.groups[key] = g
	return g
}

func (v *Venn) removeOpen(j *job.Job) {
	if g, ok := v.groups[j.Requirement.Key()]; ok {
		g.removeJob(j.ID)
	}
}

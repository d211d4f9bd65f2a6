package core

import (
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
	// MinProfileSamples gates tier decisions on profile maturity.
	MinProfileSamples int
	// DisableIncrementalPlan forces a full Algorithm-1 rebuild on every
	// plan refresh instead of the incremental patch path. Plans are
	// byte-identical either way (the differential test in internal/eval
	// pins this); the knob exists for that test and for attributing
	// regressions.
	DisableIncrementalPlan bool
}

// DefaultOptions returns the configuration used in the end-to-end
// evaluation: 3 tiers, fairness knob off.
func DefaultOptions() Options {
	return Options{Tiers: 3, MinProfileSamples: 20}
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
	// ordered without the former full re-sort on every plan rebuild.
	jobs []*job.Job
	// adj caches each queued job's sort key and doubles as the O(1)
	// membership index that replaced linear containment scans.
	adj   map[job.ID]float64
	state *GroupState
	// dirty marks that the queue changed (insert, remove, or re-key)
	// since the group's planner inputs were last refreshed. The planner
	// skips recomputing queue pressure for clean groups on the
	// incremental path.
	dirty bool
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

// maxCellCacheEntries caps the device→cell memoization table so the core's
// footprint stays bounded no matter how many device IDs a long-lived server
// hands out; devices beyond the cap fall back to the two binary searches.
const maxCellCacheEntries = 1 << 20

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
	// structChanged records that the set of planned groups itself changed
	// (a group gained its first or lost its last open request), which
	// invalidates the plan's group indexing and forces a full rebuild.
	structChanged bool
	// fullRebuild forces the next ensurePlan through the full path (env
	// rebinds, first plan).
	fullRebuild bool

	// Last computed plan and the groups it indexes into, sorted by
	// requirement key for deterministic planning order.
	plan       *CellPlan
	planGroups []*vgroup

	// Published snapshot state (see snapshot.go).
	snap      atomic.Pointer[PlanSnapshot]
	planEpoch uint64

	// Incremental-plan input caches: the cell rates, per-group
	// allocations, and scarcity permutation the current plan was built
	// from. The patch path recomputes inputs, diffs against these, and
	// only rebuilds what changed.
	ratePrev  []float64
	allocPrev []device.RegionSet
	scarcity  []int

	// Reused plan-rebuild buffers.
	stateBuf []*GroupState
	rateBuf  []float64

	// cellCache memoizes the device → cell mapping by device ID (device
	// scores are immutable for a run). Entries are cell+1 so the zero
	// value means "unknown".
	cellCache []int32

	// PlanRebuilds counts full Algorithm-1 pipeline runs; PlanPatches
	// counts refreshes served by the incremental path (including
	// no-input-change hits). Their ratio is the incremental hit rate
	// surfaced in /v1/metrics.
	PlanRebuilds int
	PlanPatches  int
	// TierFiltersApplied counts requests that ran tier-restricted
	// (observability).
	TierFiltersApplied int
}

// New creates a Venn scheduler with the given options.
func New(opts Options) *Venn {
	if opts.Tiers <= 0 {
		opts.Tiers = 3
	}
	if opts.MinProfileSamples <= 0 {
		opts.MinProfileSamples = 20
	}
	return &Venn{
		opts:     opts,
		groups:   make(map[device.RequirementKey]*vgroup),
		filters:  make(map[job.ID]*tierFilter),
		profiles: newProfiler(opts.MinProfileSamples),
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
	v.cellCache = v.cellCache[:0] // a new env means a new grid
	v.fullRebuild = true          // ...and a new grid invalidates every plan row
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
		if len(g.jobs) == 0 {
			v.structChanged = true // group enters the plan
		}
		g.insertJob(j, d)
		g.dirty = true
	} else if old != d {
		g.removeJob(j.ID)
		g.insertJob(j, d)
		g.dirty = true
	}
	if f := v.decideTier(j, now); f != nil {
		v.filters[j.ID] = f
		v.TierFiltersApplied++
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

// Assign implements sim.Scheduler. The per-device walk consults the cell
// plan's group order for the device's cell and hands out the first
// schedulable job, honoring tier filters (devices outside a job's tier flow
// to the next job in the order).
func (v *Venn) Assign(d *device.Device, now simtime.Time) *job.Job {
	v.lastNow = now
	v.ensurePlan(now)
	cell := v.cellOf(d)
	if int(cell) >= len(v.plan.Order) {
		return nil
	}
	checkFilters := len(v.filters) > 0
	for _, gi := range v.plan.Order[cell] {
		for _, j := range v.planGroups[gi].jobs {
			if j.State() != job.StateScheduling || j.RemainingDemand() <= 0 {
				continue
			}
			if !j.Requirement.Eligible(d) {
				continue
			}
			if checkFilters {
				if f := v.filters[j.ID]; f != nil && now < f.lapseAt && !f.accepts(d) {
					continue
				}
			}
			return j
		}
	}
	return nil
}

// cellOf memoizes Grid.CellOfDevice by device ID: two binary searches per
// assignment add up over millions of check-ins, and a device never changes
// cells within a run. The table is capped (see maxCellCacheEntries) so it
// cannot grow without bound as a long-lived server mints device IDs.
func (v *Venn) cellOf(d *device.Device) device.CellID {
	id := int(d.ID)
	if id < 0 || id >= maxCellCacheEntries {
		return v.env.Grid.CellOfDevice(d)
	}
	if id >= len(v.cellCache) {
		grown := make([]int32, id+1+1024)
		copy(grown, v.cellCache)
		v.cellCache = grown
	}
	if c := v.cellCache[id]; c > 0 {
		return device.CellID(c - 1)
	}
	c := v.env.Grid.CellOfDevice(d)
	v.cellCache[id] = int32(c) + 1
	return c
}

// ResetCellCache drops the device→cell memoization table. The live server
// calls this after evicting idle devices: their IDs are never reused, so
// keeping their entries would leak table space proportional to fleet churn.
// The cache repopulates on demand.
func (v *Venn) ResetCellCache() { v.cellCache = nil }

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
// republishes the snapshot. Three paths, cheapest first:
//
//   - nothing stale: return (the hot path — one atomic load);
//   - plan stale but the planned group set unchanged: refresh the planner
//     inputs for dirty groups only, rerun the (cheap, group-level)
//     Algorithm-1 allocation when any input moved, and patch just the cells
//     whose allocation owner changed — or keep the plan outright when the
//     recomputed inputs and allocations are identical (PlanPatches);
//   - the group set changed or the env was rebound: full rebuild
//     (PlanRebuilds).
//
// Both refresh paths produce byte-identical plans for identical inputs —
// the patch path only reuses a row when the scarcity permutation is
// unchanged and the cell's owner did not move, which together determine the
// row's exact content.
func (v *Venn) ensurePlan(now simtime.Time) {
	if v.plan != nil && !v.planStale.Load() {
		return
	}
	if v.plan == nil || v.fullRebuild || v.structChanged || v.opts.DisableIncrementalPlan {
		v.rebuildPlan(now)
	} else {
		v.patchPlan(now)
	}
	v.fullRebuild, v.structChanged = false, false
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

// rebuildPlan is the full Algorithm-1 pipeline: collect the non-empty
// groups, refresh every planner input, allocate, and build all cell rows.
func (v *Venn) rebuildPlan(now simtime.Time) {
	v.PlanRebuilds++
	numCells := v.env.Grid.NumCells()
	rates := v.refreshRates(now, numCells)

	// Collect groups with open requests and refresh their state. Each
	// group's queue is already ordered by fairness-adjusted remaining
	// demand, smallest first (Algorithm 1 line 3) — the order is
	// maintained incrementally at request open/close, so the rebuild only
	// refreshes supply and queue pressure.
	v.planGroups = v.planGroups[:0]
	for _, g := range v.groups {
		if len(g.jobs) == 0 {
			continue
		}
		if g.state == nil {
			g.state = &GroupState{Region: g.region}
		}
		g.state.Supply = g.region.WeightedSum(rates)
		g.state.Queue = v.adjustedQueue(g.jobs)
		g.dirty = false
		v.planGroups = append(v.planGroups, g)
	}
	// Deterministic planning order regardless of map iteration.
	sort.SliceStable(v.planGroups, func(a, b int) bool {
		ka, kb := v.planGroups[a].req.Key(), v.planGroups[b].req.Key()
		if ka.MinCPU != kb.MinCPU {
			return ka.MinCPU < kb.MinCPU
		}
		return ka.MinMem < kb.MinMem
	})

	states := v.stateBuf[:0]
	for _, g := range v.planGroups {
		states = append(states, g.state)
	}
	v.stateBuf = states
	ComputeAllocation(states, rates)
	order := scarcityOrder(states)
	v.plan = buildCellPlanOrdered(states, numCells, order)
	v.savePlanInputs(rates, order)
}

// patchPlan refreshes the plan knowing the planned group set is unchanged:
// group indices, regions, and row sizes all still hold, so the previous
// plan's rows can be reused wherever the recomputed allocation and scarcity
// order agree with the cached ones.
func (v *Venn) patchPlan(now simtime.Time) {
	numCells := v.env.Grid.NumCells()
	rates := v.refreshRates(now, numCells)

	inputChanged := !float64sEqual(v.ratePrev, rates)
	refreshAll := v.opts.Epsilon > 0 // fairness terms drift with time for every group
	for _, g := range v.planGroups {
		if sup := g.region.WeightedSum(rates); sup != g.state.Supply {
			g.state.Supply = sup
			inputChanged = true
		}
		if g.dirty || refreshAll {
			if q := v.adjustedQueue(g.jobs); q != g.state.Queue {
				g.state.Queue = q
				inputChanged = true
			}
			g.dirty = false
		}
	}
	if !inputChanged {
		// Identical inputs reproduce the identical plan; keep it.
		v.PlanPatches++
		return
	}

	ComputeAllocation(v.stateBuf, rates)
	order := scarcityOrder(v.stateBuf)
	if !intsEqual(order, v.scarcity) {
		// The per-cell priority order shifted: every row may change.
		v.PlanRebuilds++
		v.plan = buildCellPlanOrdered(v.stateBuf, numCells, order)
		v.savePlanInputs(rates, order)
		return
	}

	// Same priority order: rows can only differ on cells whose allocation
	// owner moved. Collect those cells and patch them copy-on-write.
	changed := v.env.Grid.EmptySet()
	for i, g := range v.planGroups {
		if !g.state.Alloc.Equal(v.allocPrev[i]) {
			changed.AccumulateDiff(g.state.Alloc, v.allocPrev[i])
		}
	}
	v.PlanPatches++
	if !changed.Empty() {
		v.plan = patchCellPlan(v.plan, v.stateBuf, order, changed)
	}
	v.savePlanInputs(rates, order)
}

// savePlanInputs caches the inputs the current plan was derived from, for
// the next patch-path diff.
func (v *Venn) savePlanInputs(rates []float64, order []int) {
	v.ratePrev = append(v.ratePrev[:0], rates...)
	v.scarcity = append(v.scarcity[:0], order...)
	if cap(v.allocPrev) < len(v.planGroups) {
		v.allocPrev = make([]device.RegionSet, len(v.planGroups))
	}
	v.allocPrev = v.allocPrev[:len(v.planGroups)]
	for i, g := range v.planGroups {
		v.allocPrev[i].CopyFrom(g.state.Alloc)
	}
}

func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
		if _, queued := g.adj[j.ID]; queued {
			g.removeJob(j.ID)
			if len(g.jobs) == 0 {
				v.structChanged = true // group leaves the plan
			} else {
				g.dirty = true
			}
		}
	}
}

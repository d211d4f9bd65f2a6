package core

import (
	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/simtime"
)

// PlanSnapshot is an immutable, epoch-versioned view of one finished plan:
// each planned group's requirement, eligible region and a copy of its job
// queue, plus the tier filters in force when the plan was published.
//
// Snapshots are published behind an atomic pointer at the end of every
// (re)plan, so concurrent readers — the live server's check-in fast path,
// metrics endpoints, monitoring — can consult the current plan without
// taking the scheduler lock. Nothing reachable from a snapshot is ever
// mutated after publication: a group's region is fixed when the group is
// created, the job slices are copies, and tier filters are immutable once
// created. Job *state* is deliberately not captured; readers that need it
// (e.g. to commit an assignment) must revalidate under the scheduler lock. A snapshot paired with a true Venn.PlanFresh() answer
// is current: every lifecycle event marks the plan stale before the event's
// effects are observable.
type PlanSnapshot struct {
	epoch    uint64
	numCells int
	reqs     []device.Requirement
	regions  []device.RegionSet
	groups   [][]*job.Job
	filters  map[job.ID]*tierFilter
	open     int
}

// Epoch returns the snapshot's monotonically increasing version.
func (s *PlanSnapshot) Epoch() uint64 { return s.epoch }

// HasCandidate reports whether the plan has any open request a device in the
// given cell could serve: it visits every group whose region holds the cell,
// which are the groups Venn.Assign walks, and applies the same requirement
// and tier-filter checks against the snapshot's frozen queues instead of live
// job state. Only whether some group has a candidate matters here, not which
// one Assign would pick, so the visiting order is the groups' own. While the
// snapshot is fresh (Venn.PlanFresh), a false answer proves the device would
// leave Assign empty-handed, because every queued job of a fresh plan still
// has an open request — state transitions always mark the plan stale first.
func (s *PlanSnapshot) HasCandidate(d *device.Device, cell device.CellID, now simtime.Time) bool {
	if s == nil || s.open == 0 || int(cell) < 0 || int(cell) >= s.numCells {
		return false
	}
	for gi, jobs := range s.groups {
		if len(jobs) == 0 || !s.regions[gi].Has(cell) || !s.reqs[gi].Eligible(d) {
			continue
		}
		if len(s.filters) == 0 {
			return true
		}
		for _, j := range jobs {
			if f := s.filters[j.ID]; f != nil && now < f.lapseAt && !f.accepts(d) {
				continue
			}
			return true
		}
	}
	return false
}

// publishSnapshot freezes the current plan and queues into a new snapshot
// and stores it for lock-free readers. Called at the end of ensurePlan,
// after the plan and group queues are consistent.
func (v *Venn) publishSnapshot() {
	v.planEpoch++
	s := &PlanSnapshot{
		epoch:    v.planEpoch,
		numCells: len(v.plan.Owner),
		reqs:     make([]device.Requirement, len(v.planGroups)),
		regions:  make([]device.RegionSet, len(v.planGroups)),
		groups:   make([][]*job.Job, len(v.planGroups)),
	}
	for i, g := range v.planGroups {
		s.reqs[i] = g.req
		s.regions[i] = g.region
		s.groups[i] = append([]*job.Job(nil), g.jobs...)
		s.open += len(g.jobs)
	}
	if len(v.filters) > 0 {
		s.filters = make(map[job.ID]*tierFilter, len(v.filters))
		for id, f := range v.filters {
			s.filters[id] = f
		}
	}
	v.snap.Store(s)
}

// PlanSnapshot returns the most recently published plan snapshot, or nil
// before the first plan is built. Safe for concurrent use.
func (v *Venn) PlanSnapshot() *PlanSnapshot { return v.snap.Load() }

// RefreshPlan replans and republishes if any lifecycle event invalidated the
// current plan; a no-op when the plan is fresh. The live server calls it at
// the top of a batch so the whole batch can probe one fresh snapshot instead
// of falling back to the locked path item by item. NOT safe for concurrent
// use — callers hold whatever lock guards the scheduler's mutating side.
func (v *Venn) RefreshPlan(now simtime.Time) {
	if v.env == nil {
		return
	}
	v.ensurePlan(now)
}

// PlanFresh reports whether the published snapshot still reflects every
// lifecycle event applied to the scheduler. Safe for concurrent use; pair it
// with PlanSnapshot (check freshness first, then load — ensurePlan publishes
// the new snapshot before clearing the stale flag, so a fresh answer
// guarantees the subsequent load sees at least that snapshot). PlanFresh may
// return true before the first plan exists; PlanSnapshot is nil then and
// readers must fall back to the locked path.
func (v *Venn) PlanFresh() bool { return !v.planStale.Load() }

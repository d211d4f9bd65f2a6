// Package core implements the Venn scheduler: the Intersection Resource
// Scheduling (IRS) heuristic that orders CL jobs to minimize average
// scheduling delay (Algorithm 1), the resource-aware tier-based device
// matching that trims response-collection time (Algorithm 2), and the
// starvation-prevention fairness knob (§4.4).
package core

import (
	"math"
	"sort"

	"venn/internal/device"
)

// GroupState is the planner's view of one resource-homogeneous job group:
// jobs sharing the same device requirement. The IRS planner is a pure
// function over GroupStates, which keeps it independently testable and lets
// the scalability benchmark (Figure 10) drive it directly.
type GroupState struct {
	// Region is the group's eligible cell set S_j.
	Region device.RegionSet
	// Supply is |S_j|: the estimated check-in rate (devices/hour) of
	// eligible devices.
	Supply float64
	// Queue is m_j: the (fairness-adjusted) number of queued jobs.
	Queue float64

	// Outputs, filled by ComputeAllocation.
	Alloc     device.RegionSet // S'_j: cells allocated to this group
	AllocRate float64          // |S'_j| in devices/hour

	// Planner scratch, valid only during ComputeAllocation/BuildCellPlan:
	// m'_j as it accumulates absorbed queues, and the cached |Region|.
	queueNow    float64
	regionCells int
}

// ComputeAllocation runs Algorithm 1's group-level steps over the groups:
// initial scarcest-first allocation followed by greedy cross-group
// reallocation of intersected resources. cellRates[c] is the estimated
// check-in rate of cell c. Alloc/AllocRate are (re)written on every group;
// allocations are disjoint and cover exactly the cells claimed by at least
// one group.
func ComputeAllocation(groups []*GroupState, cellRates []float64) {
	if len(groups) == 0 {
		return
	}
	for _, g := range groups {
		g.queueNow = g.Queue
		g.regionCells = g.Region.Count()
	}

	// --- Initial allocation (Algorithm 1 lines 5-9): scan groups from
	// scarcest supply to most abundant; each claims whatever of its
	// eligible cells is still unclaimed. Supply ties (common before any
	// rate data exists) break by structural scarcity: fewer eligible
	// cells means a scarcer group.
	byScarcity := make([]*GroupState, len(groups))
	copy(byScarcity, groups)
	sort.SliceStable(byScarcity, func(i, j int) bool {
		if byScarcity[i].Supply != byScarcity[j].Supply {
			return byScarcity[i].Supply < byScarcity[j].Supply
		}
		return byScarcity[i].regionCells < byScarcity[j].regionCells
	})
	// Union of all groups' regions forms the universe S.
	remaining := groups[0].Region.Clone()
	for _, g := range groups[1:] {
		remaining.UnionWith(g.Region)
	}
	for _, g := range byScarcity {
		g.Alloc.IntersectOf(remaining, g.Region)
		remaining.SubtractWith(g.Alloc)
		g.AllocRate = g.Alloc.WeightedSum(cellRates)
	}

	// --- Cross-group reallocation (Algorithm 1 lines 10-23): scan groups
	// from most abundant; a group j with an unclaimed (non-empty)
	// allocation takes intersected cells from scarcer overlapping groups
	// k, from the relatively abundant k down, while j's queue-pressure
	// ratio exceeds k's.
	byAbundance := make([]*GroupState, len(groups))
	copy(byAbundance, groups)
	sort.SliceStable(byAbundance, func(i, j int) bool {
		if byAbundance[i].Supply != byAbundance[j].Supply {
			return byAbundance[i].Supply > byAbundance[j].Supply
		}
		return byAbundance[i].regionCells > byAbundance[j].regionCells
	})
	var steal device.RegionSet // scratch, reused across iterations
	for idx, gj := range byAbundance {
		if gj.Alloc.Empty() {
			continue
		}
		for _, gk := range byAbundance[idx+1:] {
			if gk.Supply >= gj.Supply { // require strictly scarcer
				continue
			}
			if !gk.Region.Overlaps(gj.Region) {
				continue
			}
			rj := pressure(gj.queueNow, gj.AllocRate)
			rk := pressure(gk.queueNow, gk.AllocRate)
			if rj > rk {
				// Reallocate the intersection held by k to j.
				steal.IntersectOf(gk.Alloc, gj.Region)
				if steal.Empty() {
					continue
				}
				gj.Alloc.UnionWith(steal)
				gk.Alloc.SubtractWith(steal)
				moved := steal.WeightedSum(cellRates)
				gj.AllocRate += moved
				gk.AllocRate -= moved
				// k's waiting jobs now queue behind j on the
				// shared cells; account them into m'_j.
				gj.queueNow += gk.queueNow
			} else {
				break
			}
		}
	}
}

// pressure is the scheduling-delay pressure ratio m'/|S'| with a safe
// infinity for starved groups.
func pressure(queue, allocRate float64) float64 {
	if allocRate <= 0 {
		if queue <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return queue / allocRate
}

// CellPlan is Algorithm 1's partition in the form the assignment walk reads
// it: each cell's allocation owner, plus one scarcity order over the planned
// groups. A device checked in to cell c is offered to Owner[c]'s jobs first,
// then to every other group whose region holds c, scarcest supply first (the
// "first eligible job in the order" rule). The fallback decides only when the
// owner has no job the device can take, e.g. while a tier filter blocks it.
type CellPlan struct {
	// Owner[c] indexes the planner's group slice: the group allocated cell
	// c, or -1 when no group is eligible for it.
	Owner []int32
	// Order lists every group index, lowest supply first.
	Order []int
}

// scarcityOrder returns the group indices sorted lowest supply first,
// structurally scarcer (fewer eligible cells) on ties, original index on
// full ties.
func scarcityOrder(groups []*GroupState) []int {
	order := make([]int, len(groups))
	counts := make([]int, len(groups))
	for i, g := range groups {
		order[i] = i
		counts[i] = g.Region.Count()
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga, gb := groups[order[a]], groups[order[b]]
		if ga.Supply != gb.Supply {
			return ga.Supply < gb.Supply
		}
		return counts[order[a]] < counts[order[b]]
	})
	return order
}

// BuildCellPlan derives the cell plan for the given groups after
// ComputeAllocation has filled Alloc. Owner is always sized to numCells, so
// every cell of the grid has an entry. Allocations are disjoint subsets of
// their groups' regions; should they ever overlap, the first group in slice
// order keeps the cell and the other holders fall through to Order.
func BuildCellPlan(groups []*GroupState, numCells int) *CellPlan {
	if numCells < 0 {
		numCells = 0
	}
	plan := &CellPlan{Owner: make([]int32, numCells), Order: scarcityOrder(groups)}
	for c := range plan.Owner {
		plan.Owner[c] = -1
	}
	for gi, g := range groups {
		g.Alloc.ForEach(func(c device.CellID) {
			if int(c) < numCells && plan.Owner[c] < 0 && g.Region.Has(c) {
				plan.Owner[c] = int32(gi)
			}
		})
	}
	return plan
}

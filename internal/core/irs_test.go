package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"venn/internal/device"
)

// twoGroupSetup builds the Appendix D scenario: group A (General, 100% of
// supply eligible) and group B (High-Mem, x% eligible), on a 1x2 cell grid.
func twoGroupSetup(x float64, queueA, queueB float64) (groups []*GroupState, rates []float64, grid *device.Grid) {
	reqA := device.Requirement{Name: "A", MinMem: 0}
	reqB := device.Requirement{Name: "B", MinMem: 0.5}
	grid = device.NewGrid([]device.Requirement{reqA, reqB})
	rates = make([]float64, grid.NumCells())
	// Cell for mem < 0.5 gets rate 100-x, cell for mem >= 0.5 gets x.
	lowCell := grid.CellOf(0, 0)
	highCell := grid.CellOf(0, 0.9)
	rates[lowCell] = 100 - x
	rates[highCell] = x
	regionA := grid.RegionOf(reqA)
	regionB := grid.RegionOf(reqB)
	groups = []*GroupState{
		{Region: regionA, Supply: 100, Queue: queueA},
		{Region: regionB, Supply: x, Queue: queueB},
	}
	return groups, rates, grid
}

// containsAll reports whether every cell of t is in s.
func containsAll(s, t device.RegionSet) bool {
	all := true
	t.ForEach(func(c device.CellID) { all = all && s.Has(c) })
	return all
}

func TestInitialAllocationScarcestFirst(t *testing.T) {
	groups, rates, _ := twoGroupSetup(20, 1, 1)
	ComputeAllocation(groups, rates)
	a, b := groups[0], groups[1]
	// B is scarcer: it must own its whole region; A gets the rest.
	if !containsAll(b.Alloc, b.Region) || !containsAll(b.Region, b.Alloc) {
		t.Errorf("scarce group alloc = %v, want its full region %v", b.Alloc, b.Region)
	}
	if b.Alloc.Overlaps(a.Alloc) {
		t.Error("allocations must be disjoint")
	}
	if a.AllocRate != 80 || b.AllocRate != 20 {
		t.Errorf("alloc rates = %v, %v; want 80, 20", a.AllocRate, b.AllocRate)
	}
}

func TestCrossGroupStealWhenQueuePressureHigher(t *testing.T) {
	// A has a much longer queue per allocated rate than B: A should take
	// the intersected (high-mem) cell from B.
	groups, rates, _ := twoGroupSetup(20, 50, 1)
	ComputeAllocation(groups, rates)
	a, b := groups[0], groups[1]
	// pressure(A) = 50/80 = 0.625 > pressure(B) = 1/20 = 0.05 -> steal.
	if b.AllocRate != 0 {
		t.Errorf("B should have been stripped, has rate %v", b.AllocRate)
	}
	if a.AllocRate != 100 {
		t.Errorf("A should own everything, has %v", a.AllocRate)
	}
}

func TestCrossGroupNoStealWhenPressureLower(t *testing.T) {
	// B's queue pressure dominates: no steal.
	groups, rates, _ := twoGroupSetup(20, 1, 50)
	ComputeAllocation(groups, rates)
	a, b := groups[0], groups[1]
	if b.AllocRate != 20 {
		t.Errorf("B must keep its region: rate %v", b.AllocRate)
	}
	if a.AllocRate != 80 {
		t.Errorf("A rate = %v, want 80", a.AllocRate)
	}
}

func TestStealThresholdMatchesLemma(t *testing.T) {
	// Lemma 2: prioritize A iff m'_A/(1-x) > m'_B/x  (rates as fractions).
	// With x=20%: steal iff qA/80 > qB/20, i.e. qA > 4*qB.
	for _, c := range []struct {
		qA, qB float64
		steal  bool
	}{
		{9, 2, true},   // 9/80 > 2/20? 0.1125 > 0.1 -> steal
		{7, 2, false},  // 0.0875 < 0.1 -> keep
		{41, 10, true}, // 0.5125 > 0.5
		{39, 10, false},
	} {
		groups, rates, _ := twoGroupSetup(20, c.qA, c.qB)
		ComputeAllocation(groups, rates)
		b := groups[1]
		stole := b.AllocRate == 0
		if stole != c.steal {
			t.Errorf("qA=%v qB=%v: steal=%v, want %v", c.qA, c.qB, stole, c.steal)
		}
	}
}

func TestAllocationDisjointAndCompleteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		reqs := make([]device.Requirement, n)
		for i := range reqs {
			reqs[i] = device.Requirement{
				MinCPU: float64(rng.Intn(8)) / 8,
				MinMem: float64(rng.Intn(8)) / 8,
			}
		}
		grid := device.NewGrid(reqs)
		rates := make([]float64, grid.NumCells())
		for c := range rates {
			rates[c] = rng.Float64() * 100
		}
		groups := make([]*GroupState, n)
		union := grid.EmptySet()
		for i := range groups {
			region := grid.RegionOf(reqs[i])
			supply := 0.0
			region.ForEach(func(c device.CellID) { supply += rates[c] })
			groups[i] = &GroupState{
				Region: region,
				Supply: supply,
				Queue:  float64(rng.Intn(20) + 1),
			}
			union.UnionWith(region)
		}
		ComputeAllocation(groups, rates)
		// Disjointness.
		seen := grid.EmptySet()
		for _, g := range groups {
			if g.Alloc.Overlaps(seen) {
				return false
			}
			seen.UnionWith(g.Alloc)
			// A group can only hold cells it is eligible for.
			if !containsAll(g.Region, g.Alloc) {
				return false
			}
		}
		// Coverage: every cell of the union is owned by someone.
		return containsAll(seen, union) && containsAll(union, seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBuildCellPlanOwnerFirst(t *testing.T) {
	groups, rates, grid := twoGroupSetup(20, 1, 1)
	ComputeAllocation(groups, rates)
	plan := BuildCellPlan(groups, grid.NumCells())
	highCell := grid.CellOf(0, 0.9)
	lowCell := grid.CellOf(0, 0)
	// High cell: B (index 1) owns it; low cell: only A is eligible.
	if got := plan.Owner[highCell]; got != 1 {
		t.Errorf("high cell owner = %d, want 1", got)
	}
	if got := plan.Owner[lowCell]; got != 0 {
		t.Errorf("low cell owner = %d, want 0", got)
	}
	// B is the scarcer group, so it leads the fallback order.
	if got := plan.Order; !slices.Equal(got, []int{1, 0}) {
		t.Errorf("order = %v, want [1 0]", got)
	}
}

func TestBuildCellPlanFallbackScarcestFirst(t *testing.T) {
	// Three overlapping groups on the standard 2x2 grid.
	cats := device.Categories()
	grid := device.NewGrid(cats)
	rates := []float64{50, 20, 20, 10}
	mk := func(req device.Requirement, q float64) *GroupState {
		region := grid.RegionOf(req)
		s := 0.0
		region.ForEach(func(c device.CellID) { s += rates[c] })
		return &GroupState{Region: region, Supply: s, Queue: q}
	}
	groups := []*GroupState{mk(device.General, 1), mk(device.ComputeRich, 1), mk(device.HighPerf, 1)}
	ComputeAllocation(groups, rates)
	plan := BuildCellPlan(groups, grid.NumCells())
	// HighPerf (idx 2) owns the high/high cell (3); a device it cannot
	// take falls back to ComputeRich (scarcer) before General.
	if got := plan.Owner[3]; got != 2 {
		t.Errorf("cell 3 owner = %d, want 2", got)
	}
	if got := plan.Order; !slices.Equal(got, []int{2, 1, 0}) {
		t.Errorf("order = %v, want [2 1 0]", got)
	}
}

func TestPressureSafeDivision(t *testing.T) {
	if p := pressure(5, 0); p <= 1e300 {
		t.Error("starved group with queue must have infinite pressure")
	}
	if p := pressure(0, 0); p != 0 {
		t.Error("empty group with no supply must have zero pressure")
	}
	if p := pressure(4, 2); p != 2 {
		t.Errorf("pressure = %v, want 2", p)
	}
}

func TestComputeAllocationEmpty(t *testing.T) {
	ComputeAllocation(nil, nil) // must not panic
	plan := BuildCellPlan(nil, 4)
	if !slices.Equal(plan.Owner, []int32{-1, -1, -1, -1}) || len(plan.Order) != 0 {
		t.Errorf("empty plan = %+v, want four unowned cells and no order", plan)
	}
}

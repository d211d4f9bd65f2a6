package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// standardGrid builds the grid of the four evaluation strata: a 2x2 cell
// grid cut at 0.5 on both axes.
func standardGrid() *Grid { return NewGrid(Categories()) }

// cellsOf lists s's cells in ascending order.
func cellsOf(s RegionSet) []CellID {
	var out []CellID
	s.ForEach(func(c CellID) { out = append(out, c) })
	return out
}

// containsAll reports whether every cell of t is in s.
func containsAll(s, t RegionSet) bool {
	all := true
	t.ForEach(func(c CellID) { all = all && s.Has(c) })
	return all
}

// sameCells reports whether a and b hold the same cells.
func sameCells(a, b RegionSet) bool { return containsAll(a, b) && containsAll(b, a) }

// universe returns the set of all of g's cells.
func universe(g *Grid) RegionSet {
	s := g.EmptySet()
	for c := 0; c < g.NumCells(); c++ {
		s.Insert(CellID(c))
	}
	return s
}

func TestGridShape(t *testing.T) {
	g := standardGrid()
	if g.NumCells() != 4 || len(g.cpuCuts) != 2 || len(g.memCuts) != 2 {
		t.Fatalf("grid shape: cells=%d cpu=%d mem=%d", g.NumCells(), len(g.cpuCuts), len(g.memCuts))
	}
	// Duplicated thresholds must not add cells.
	g2 := NewGrid(append(Categories(), Categories()...))
	if g2.NumCells() != 4 {
		t.Errorf("duplicate requirements inflated the grid to %d cells", g2.NumCells())
	}
	// An empty requirement set still yields the unit cell.
	g3 := NewGrid(nil)
	if g3.NumCells() != 1 {
		t.Errorf("empty grid should have 1 cell, got %d", g3.NumCells())
	}
}

func TestCellOfBoundaries(t *testing.T) {
	g := standardGrid()
	cases := []struct {
		cpu, mem float64
		want     CellID
	}{
		{0, 0, 0},
		{0.49, 0.49, 0},
		{0.5, 0, 1}, // boundary is inclusive on the upper band
		{1, 0.49, 1},
		{0, 0.5, 2},
		{0.49, 1, 2},
		{0.5, 0.5, 3},
		{1, 1, 3},
	}
	for _, c := range cases {
		if got := g.CellOf(c.cpu, c.mem); got != c.want {
			t.Errorf("CellOf(%v,%v) = %d, want %d", c.cpu, c.mem, got, c.want)
		}
	}
}

// TestGridContains checks Contains against CellOf for every cell, on the
// scores where they could part: 0 and 1, every cut, the float just below
// each cut, and random scores. The uneven grid has a cut at 1, so its top
// CPU band holds the single score 1.
func TestGridContains(t *testing.T) {
	uneven := NewGrid([]Requirement{
		{MinCPU: 0.3, MinMem: 0.25}, {MinCPU: 0.5, MinMem: 0.7}, {MinCPU: 1, MinMem: 0.1},
	})
	rng := rand.New(rand.NewSource(1))
	for name, g := range map[string]*Grid{"standard": standardGrid(), "uneven": uneven, "empty": NewGrid(nil)} {
		scores := []float64{0, 1}
		for _, cut := range append(append([]float64(nil), g.cpuCuts...), g.memCuts...) {
			scores = append(scores, cut, Clamp01(math.Nextafter(cut, math.Inf(-1))))
		}
		for i := 0; i < 200; i++ {
			scores = append(scores, Clamp01(rng.Float64()*1.4-0.2))
		}
		for _, cpu := range scores {
			for _, mem := range scores {
				want := g.CellOf(cpu, mem)
				for c := CellID(0); int(c) < g.NumCells(); c++ {
					if got := g.Contains(c, cpu, mem); got != (c == want) {
						t.Fatalf("%s: Contains(%d, %v, %v) = %v; CellOf = %d", name, c, cpu, mem, got, want)
					}
				}
			}
		}
	}
}

func TestRegionOfStandardCategories(t *testing.T) {
	g := standardGrid()
	if got := g.RegionOf(General).Count(); got != 4 {
		t.Errorf("General covers %d cells, want 4", got)
	}
	if got := cellsOf(g.RegionOf(ComputeRich)); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Compute-Rich cells = %v, want [1 3]", got)
	}
	if got := cellsOf(g.RegionOf(MemoryRich)); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Memory-Rich cells = %v, want [2 3]", got)
	}
	if got := cellsOf(g.RegionOf(HighPerf)); len(got) != 1 || got[0] != 3 {
		t.Errorf("High-Perf cells = %v, want [3]", got)
	}
	// Set relations mirror requirement containment.
	if !containsAll(g.RegionOf(General), g.RegionOf(HighPerf)) {
		t.Error("General region must contain High-Perf region")
	}
	var inter RegionSet
	inter.IntersectOf(g.RegionOf(ComputeRich), g.RegionOf(MemoryRich))
	if !sameCells(inter, g.RegionOf(HighPerf)) {
		t.Error("Compute ∩ Memory must equal High-Perf")
	}
}

// TestEligibilityMatchesRegionProperty is the core exactness property of the
// grid construction: for any set of requirements and any device, membership
// of the device's cell in a requirement's region must coincide with direct
// eligibility.
func TestEligibilityMatchesRegionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 1
		reqs := make([]Requirement, n)
		for i := range reqs {
			reqs[i] = Requirement{
				MinCPU: float64(rng.Intn(10)) / 10,
				MinMem: float64(rng.Intn(10)) / 10,
			}
		}
		g := NewGrid(reqs)
		regions := make([]RegionSet, n)
		for i, r := range reqs {
			regions[i] = g.RegionOf(r)
		}
		for k := 0; k < 50; k++ {
			cpu, mem := rng.Float64(), rng.Float64()
			cell := g.CellOf(cpu, mem)
			for i, r := range reqs {
				if regions[i].Has(cell) != r.EligibleScores(cpu, mem) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRegionSetAlgebraLawsProperty(t *testing.T) {
	g := NewGrid([]Requirement{
		{MinCPU: 0.3}, {MinCPU: 0.7}, {MinMem: 0.4}, {MinMem: 0.8}, {MinCPU: 0.5, MinMem: 0.5},
	})
	// The set operations the planner runs in place, as pure functions.
	union := func(a, b RegionSet) RegionSet { u := a.Clone(); u.UnionWith(b); return u }
	subtract := func(a, b RegionSet) RegionSet { d := a.Clone(); d.SubtractWith(b); return d }
	intersect := func(a, b RegionSet) RegionSet { var i RegionSet; i.IntersectOf(a, b); return i }
	all := universe(g)
	mkSet := func(bits uint32) RegionSet {
		s := g.EmptySet()
		for c := 0; c < g.NumCells(); c++ {
			if bits&(1<<uint(c%32)) != 0 && c < 32 {
				s.Insert(CellID(c))
			}
		}
		return s
	}
	f := func(aBits, bBits uint32) bool {
		a, b := mkSet(aBits), mkSet(bBits)
		// De Morgan: U \ (a ∪ b) == (U\a) ∩ (U\b)
		left := subtract(all, union(a, b))
		right := intersect(subtract(all, a), subtract(all, b))
		if !sameCells(left, right) {
			return false
		}
		// |a| = |a∩b| + |a\b|
		if a.Count() != intersect(a, b).Count()+subtract(a, b).Count() {
			return false
		}
		// Overlap consistency.
		if a.Overlaps(b) != !intersect(a, b).Empty() {
			return false
		}
		// Union contains both.
		u := union(a, b)
		return containsAll(u, a) && containsAll(u, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegionSetInsertRemove(t *testing.T) {
	g := standardGrid()
	s := g.EmptySet()
	if !s.Empty() {
		t.Fatal("new set must be empty")
	}
	s.Insert(2)
	if !s.Has(2) || s.Count() != 1 {
		t.Fatal("Insert broken")
	}
	if s.Has(-1) || s.Has(99) {
		t.Error("out-of-range Has must be false")
	}
}

func TestRegionSetCloneIsIndependent(t *testing.T) {
	g := standardGrid()
	a := g.EmptySet()
	a.Insert(1)
	b := a.Clone()
	b.Insert(3)
	if a.Has(3) {
		t.Error("Clone aliases the original")
	}
	if !b.Has(1) {
		t.Error("Clone lost contents")
	}
}

func TestRegionSetString(t *testing.T) {
	g := standardGrid()
	s := g.EmptySet()
	s.Insert(0)
	s.Insert(3)
	if got := s.String(); got != "{0,3}" {
		t.Errorf("String = %q", got)
	}
	if got := g.EmptySet().String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestCellCornerAndBounds(t *testing.T) {
	g := standardGrid()
	cpu, mem := g.CellCorner(3)
	if cpu != 0.5 || mem != 0.5 {
		t.Errorf("CellCorner(3) = (%v,%v)", cpu, mem)
	}
}

func TestForEachOrder(t *testing.T) {
	g := NewGrid([]Requirement{{MinCPU: 0.2}, {MinCPU: 0.4}, {MinCPU: 0.6}, {MinMem: 0.5}})
	s := universe(g)
	var cells []CellID
	s.ForEach(func(c CellID) { cells = append(cells, c) })
	if len(cells) != g.NumCells() {
		t.Fatalf("ForEach visited %d cells, want %d", len(cells), g.NumCells())
	}
	for i := 1; i < len(cells); i++ {
		if cells[i] <= cells[i-1] {
			t.Fatal("ForEach must visit in ascending order")
		}
	}
}

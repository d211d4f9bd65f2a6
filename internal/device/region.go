package device

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// CellID indexes an atomic cell of a Grid. Cells are numbered row-major:
// cell = memBand*numCPUBands + cpuBand.
type CellID int

// Grid partitions the (CPU, Mem) score plane into atomic cells induced by
// the distinct thresholds of a set of requirements. Every requirement's
// eligible region is an exact, axis-aligned union of cells: the upper-right
// sub-grid at its thresholds. The grid is immutable once built.
type Grid struct {
	cpuCuts []float64 // ascending, cpuCuts[0] == 0
	memCuts []float64 // ascending, memCuts[0] == 0
	// bounds[c] is the half-open score rectangle of cell c, its top bands
	// open to +Inf, so that Contains agrees with CellOf on every score.
	bounds []cellBounds
}

type cellBounds struct{ cpuLo, cpuHi, memLo, memHi float64 }

// NewGrid builds the atomic-cell grid for the given requirements. The zero
// threshold is always included so the grid covers the whole plane.
func NewGrid(reqs []Requirement) *Grid {
	cpuSet := map[int64]float64{0: 0}
	memSet := map[int64]float64{0: 0}
	for _, r := range reqs {
		k := r.Key()
		cpuSet[k.MinCPU] = r.MinCPU
		memSet[k.MinMem] = r.MinMem
	}
	g := &Grid{}
	for _, v := range cpuSet {
		g.cpuCuts = append(g.cpuCuts, v)
	}
	for _, v := range memSet {
		g.memCuts = append(g.memCuts, v)
	}
	sort.Float64s(g.cpuCuts)
	sort.Float64s(g.memCuts)
	g.bounds = make([]cellBounds, 0, g.NumCells())
	for mi := range g.memCuts {
		for ci := range g.cpuCuts {
			g.bounds = append(g.bounds, cellBounds{
				cpuLo: g.cpuCuts[ci], cpuHi: cutAbove(g.cpuCuts, ci),
				memLo: g.memCuts[mi], memHi: cutAbove(g.memCuts, mi),
			})
		}
	}
	return g
}

// cutAbove is the cut that ends band i, +Inf for the top band.
func cutAbove(cuts []float64, i int) float64 {
	if i+1 < len(cuts) {
		return cuts[i+1]
	}
	return math.Inf(1)
}

// NumCells returns the total number of atomic cells.
func (g *Grid) NumCells() int { return len(g.cpuCuts) * len(g.memCuts) }

// CellOf returns the atomic cell containing the given scores.
func (g *Grid) CellOf(cpu, mem float64) CellID {
	ci := bandOf(g.cpuCuts, cpu)
	mi := bandOf(g.memCuts, mem)
	return CellID(mi*len(g.cpuCuts) + ci)
}

// Contains reports whether CellOf(cpu, mem) == c, for scores in [0, 1], with
// four compares instead of CellOf's two binary searches: the registry uses it
// to revalidate a device's cached cell on every check-in.
func (g *Grid) Contains(c CellID, cpu, mem float64) bool {
	b := &g.bounds[c]
	return b.cpuLo <= cpu && cpu < b.cpuHi && b.memLo <= mem && mem < b.memHi
}

// CellOfDevice returns the atomic cell containing the device.
func (g *Grid) CellOfDevice(d *Device) CellID { return g.CellOf(d.CPU, d.Mem) }

// bandOf returns the index of the highest cut <= x. Hand-rolled binary
// search: sort.SearchFloat64s costs a non-inlinable closure call per probe,
// which is measurable on the per-device assignment hot path.
func bandOf(cuts []float64, x float64) int {
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cuts[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// CellCorner returns the lower-left corner (cpu, mem) of the cell, i.e. the
// minimum scores of any device in that cell.
func (g *Grid) CellCorner(c CellID) (cpu, mem float64) {
	nc := len(g.cpuCuts)
	return g.cpuCuts[int(c)%nc], g.memCuts[int(c)/nc]
}

// RegionOf returns the set of cells eligible for the requirement. A cell is
// eligible iff its lower-left corner satisfies the requirement; because the
// grid cuts include every requirement threshold, this is exact.
func (g *Grid) RegionOf(r Requirement) RegionSet {
	s := g.EmptySet()
	for c := 0; c < g.NumCells(); c++ {
		cpu, mem := g.CellCorner(CellID(c))
		if r.EligibleScores(cpu, mem) {
			s.Insert(CellID(c))
		}
	}
	return s
}

// EmptySet returns an empty region sized for this grid.
func (g *Grid) EmptySet() RegionSet {
	return RegionSet{words: make([]uint64, (g.NumCells()+63)/64), n: g.NumCells()}
}

// RegionSet is a set of atomic cells, backed by a bitset. Methods with value
// receivers only read the set; Insert and the *With/*Of operations mutate it
// in place.
type RegionSet struct {
	words []uint64
	n     int // grid cell count, for bounds and iteration
}

// Insert adds cell c to the set.
func (s *RegionSet) Insert(c CellID) {
	s.words[int(c)/64] |= 1 << (uint(c) % 64)
}

// Has reports whether cell c is in the set.
func (s RegionSet) Has(c CellID) bool {
	if int(c) < 0 || int(c) >= s.n {
		return false
	}
	return s.words[int(c)/64]&(1<<(uint(c)%64)) != 0
}

// Count returns the number of cells in the set.
func (s RegionSet) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether the set has no cells.
func (s RegionSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s RegionSet) Clone() RegionSet {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return RegionSet{words: w, n: s.n}
}

// UnionWith adds every cell of t to s, in place. Cells of t beyond s's grid
// size are ignored.
func (s *RegionSet) UnionWith(t RegionSet) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] |= t.words[i]
	}
}

// SubtractWith removes every cell of t from s, in place.
func (s *RegionSet) SubtractWith(t RegionSet) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= t.words[i]
	}
}

// IntersectOf sets s = a ∩ b, reusing s's storage. s takes a's grid size
// (no allocation once s has capacity).
func (s *RegionSet) IntersectOf(a, b RegionSet) {
	s.words = append(s.words[:0], a.words...)
	s.n = a.n
	for i := range s.words {
		if i < len(b.words) {
			s.words[i] &= b.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// WeightedSum sums w[c] over the cells c of the set; cells with no weight
// entry contribute zero. It is the closure-free equivalent of iterating with
// ForEach, used on the planner's hot path.
func (s RegionSet) WeightedSum(w []float64) float64 {
	total := 0.0
	for i, word := range s.words {
		base := i * 64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if c := base + b; c < len(w) {
				total += w[c]
			}
			word &= word - 1
		}
	}
	return total
}

// Overlaps reports whether s ∩ t is non-empty.
func (s RegionSet) Overlaps(t RegionSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every cell in ascending order.
func (s RegionSet) ForEach(fn func(CellID)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(CellID(i*64 + b))
			w &= w - 1
		}
	}
}

// String renders the set as {c0,c3,...}.
func (s RegionSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(c CellID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", c)
	})
	b.WriteByte('}')
	return b.String()
}

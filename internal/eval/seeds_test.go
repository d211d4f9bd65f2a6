package eval

import (
	"testing"

	"venn/internal/stats"
)

// TestMultiSeedDirection checks the headline comparison across several seeds:
// on average Venn must beat Random and FIFO and match or beat SRSF.
func TestMultiSeedDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	var venn, srsf, fifo []float64
	for seed := int64(1); seed <= 5; seed++ {
		setup := NewSetup(ScaleQuick, seed)
		cmp, err := Compare(setup, StandardSchedulers())
		if err != nil {
			t.Fatal(err)
		}
		venn = append(venn, cmp.Speedup("Venn", "Random"))
		srsf = append(srsf, cmp.Speedup("SRSF", "Random"))
		fifo = append(fifo, cmp.Speedup("FIFO", "Random"))
		t.Logf("seed %d: Venn %.2fx SRSF %.2fx FIFO %.2fx",
			seed, venn[len(venn)-1], srsf[len(srsf)-1], fifo[len(fifo)-1])
	}
	vm, sm, fm := stats.Mean(venn), stats.Mean(srsf), stats.Mean(fifo)
	t.Logf("means: Venn %.2fx SRSF %.2fx FIFO %.2fx", vm, sm, fm)
	if vm <= 1.0 {
		t.Errorf("Venn mean speedup over Random = %.2f, want > 1.0", vm)
	}
	if vm <= fm {
		t.Errorf("Venn mean speedup %.2f does not beat FIFO's %.2f", vm, fm)
	}
	if vm < sm*0.95 {
		t.Errorf("Venn (%.2f) should not trail SRSF (%.2f) materially", vm, sm)
	}
}

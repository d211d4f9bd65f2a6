package trace

import "venn/internal/stats"

// JobSpec is one entry of the CL job demand trace (Figure 8b): how many
// training rounds the job runs and how many participants each round needs.
type JobSpec struct {
	Rounds         int `json:"rounds"`
	DemandPerRound int `json:"demand_per_round"`
}

// TotalDemand returns the job's total device demand over its lifetime.
func (s JobSpec) TotalDemand() int { return s.Rounds * s.DemandPerRound }

// JobTraceModel samples JobSpecs with the heavy-tailed marginals of the
// paper's production job trace: rounds span [MinRounds, MaxRounds] and
// per-round participant demand spans [MinDemand, MaxDemand], both roughly
// log-normal (most jobs are small; a few are enormous).
type JobTraceModel struct {
	MinRounds, MaxRounds int
	MinDemand, MaxDemand int
	// Log-normal (median, p95) parameters for each marginal.
	RoundsMedian, RoundsP95 float64
	DemandMedian, DemandP95 float64
}

// DefaultJobTraceModel matches the ranges of Figure 8b: rounds up to ~4000,
// participants per round up to ~1500.
func DefaultJobTraceModel() *JobTraceModel {
	return &JobTraceModel{
		MinRounds: 10, MaxRounds: 4000,
		MinDemand: 10, MaxDemand: 1500,
		RoundsMedian: 120, RoundsP95: 2000,
		DemandMedian: 60, DemandP95: 800,
	}
}

// Sample draws one job spec.
func (m *JobTraceModel) Sample(rng *stats.RNG) JobSpec {
	r := int(rng.LogNormalMedianP95(m.RoundsMedian, m.RoundsP95))
	d := int(rng.LogNormalMedianP95(m.DemandMedian, m.DemandP95))
	return JobSpec{
		Rounds:         clampInt(r, m.MinRounds, m.MaxRounds),
		DemandPerRound: clampInt(d, m.MinDemand, m.MaxDemand),
	}
}

// Generate draws n job specs.
func (m *JobTraceModel) Generate(n int, rng *stats.RNG) []JobSpec {
	out := make([]JobSpec, n)
	for i := range out {
		out[i] = m.Sample(rng)
	}
	return out
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SplitByTotalDemand partitions specs into those with below-average and
// above-average total demand — the paper's Small/Large workload split.
func SplitByTotalDemand(specs []JobSpec) (small, large []JobSpec) {
	if len(specs) == 0 {
		return nil, nil
	}
	total := 0.0
	for _, s := range specs {
		total += float64(s.TotalDemand())
	}
	avg := total / float64(len(specs))
	for _, s := range specs {
		if float64(s.TotalDemand()) < avg {
			small = append(small, s)
		} else {
			large = append(large, s)
		}
	}
	return small, large
}

// SplitByRoundDemand partitions specs into those with below-average and
// above-average per-round demand — the paper's Low/High workload split.
func SplitByRoundDemand(specs []JobSpec) (low, high []JobSpec) {
	if len(specs) == 0 {
		return nil, nil
	}
	total := 0.0
	for _, s := range specs {
		total += float64(s.DemandPerRound)
	}
	avg := total / float64(len(specs))
	for _, s := range specs {
		if float64(s.DemandPerRound) < avg {
			low = append(low, s)
		} else {
			high = append(high, s)
		}
	}
	return low, high
}

package eval

import (
	"sort"

	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/stats"
	"venn/internal/workload"
)

// SpeedupOverSubset computes r's average-JCT improvement over baseline for
// the jobs that satisfy keep (paired over jobs both runs completed).
func SpeedupOverSubset(r, baseline *sim.Result, keep func(*job.Job) bool) float64 {
	var mine, theirs float64
	n := 0
	for _, j := range r.Completed {
		if !keep(j) {
			continue
		}
		if base, ok := baseline.JobJCT(j.ID); ok {
			mine += j.JCT().Seconds()
			theirs += base
			n++
		}
	}
	if n == 0 || mine <= 0 {
		return 0
	}
	return theirs / mine
}

// --- Table 1: average JCT improvement over Random per workload ---

// Table1Result holds the Table 1 reproduction: per workload scenario, the
// average JCT speed-up of FIFO, SRSF, and Venn over optimized Random
// matching.
type Table1Result struct {
	Scenarios  []workload.Scenario
	Schedulers []string
	// Speedup[scenario][scheduler] averaged over seeds.
	Speedup map[workload.Scenario]map[string]float64
	Seeds   int
}

// Table1 reproduces Table 1 at the given scale, averaging over `seeds`
// independent workload/fleet draws.
func Table1(scale Scale, seeds int) (*Table1Result, error) {
	if seeds <= 0 {
		seeds = 3
	}
	res := &Table1Result{
		Scenarios:  workload.Scenarios(),
		Schedulers: []string{"FIFO", "SRSF", "Venn"},
		Speedup:    make(map[workload.Scenario]map[string]float64),
		Seeds:      seeds,
	}
	setups := make([]Setup, 0, len(res.Scenarios)*seeds)
	for _, sc := range res.Scenarios {
		for s := 0; s < seeds; s++ {
			setup := NewSetup(scale, int64(1000*int(sc)+s))
			setup.Jobs.Scenario = sc
			setups = append(setups, setup)
		}
	}
	cmps, err := CompareMany(setups, func(int) map[string]SchedulerFactory { return StandardSchedulers() })
	if err != nil {
		return nil, err
	}
	for i, sc := range res.Scenarios {
		res.Speedup[sc] = meanSpeedups(cmps[i*seeds:(i+1)*seeds], res.Schedulers)
	}
	return res, nil
}

// Render formats the result like the paper's Table 1.
func (r *Table1Result) Render() string {
	t := NewTable("Table 1: average JCT improvement over Random matching",
		"Workload", "FIFO", "SRSF", "Venn")
	for _, sc := range r.Scenarios {
		row := []any{sc.String()}
		for _, name := range r.Schedulers {
			row = append(row, FormatSpeedup(r.Speedup[sc][name]))
		}
		t.AddRow(row...)
	}
	t.Caption = "(paper: FIFO 1.38-1.64x, SRSF 1.41-1.69x, Venn 1.63-1.88x)"
	return t.Render()
}

// --- Table 2: improvement by total-demand percentile ---

// Table2Result breaks Venn's improvement down by job total demand: the
// speed-up over Random among the jobs in the lowest 25%, 50%, and 75% of
// total demand, per workload.
type Table2Result struct {
	Scenarios   []workload.Scenario
	Percentiles []float64
	// Speedup[scenario][i] corresponds to Percentiles[i].
	Speedup map[workload.Scenario][]float64
}

// Table2 reproduces Table 2 at the given scale.
func Table2(scale Scale, seeds int) (*Table2Result, error) {
	if seeds <= 0 {
		seeds = 3
	}
	res := &Table2Result{
		Scenarios:   workload.Scenarios(),
		Percentiles: []float64{25, 50, 75},
		Speedup:     make(map[workload.Scenario][]float64),
	}
	setups := make([]Setup, 0, len(res.Scenarios)*seeds)
	for _, sc := range res.Scenarios {
		for s := 0; s < seeds; s++ {
			setup := NewSetup(scale, int64(2000*int(sc)+s))
			setup.Jobs.Scenario = sc
			setups = append(setups, setup)
		}
	}
	cmps, err := CompareMany(setups, func(int) map[string]SchedulerFactory {
		return pick(StandardSchedulers(), "Random", "Venn")
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range res.Scenarios {
		acc := make([][]float64, len(res.Percentiles))
		for s := 0; s < seeds; s++ {
			cmp := cmps[i*seeds+s]
			venn, random := cmp.Results["Venn"], cmp.Results["Random"]
			totals := completedTotals(venn)
			for i, p := range res.Percentiles {
				cut := stats.Percentile(totals, p)
				sp := SpeedupOverSubset(venn, random, func(j *job.Job) bool {
					return float64(j.TotalDemand()) <= cut
				})
				if sp > 0 {
					acc[i] = append(acc[i], sp)
				}
			}
		}
		row := make([]float64, len(res.Percentiles))
		for i := range row {
			row[i] = stats.Mean(acc[i])
		}
		res.Speedup[sc] = row
	}
	return res, nil
}

func completedTotals(r *sim.Result) []float64 {
	out := make([]float64, 0, len(r.Completed))
	for _, j := range r.Completed {
		out = append(out, float64(j.TotalDemand()))
	}
	sort.Float64s(out)
	return out
}

// Render formats the result like the paper's Table 2.
func (r *Table2Result) Render() string {
	t := NewTable("Table 2: Venn JCT improvement by total-demand percentile (vs Random)",
		"Workload", "25th", "50th", "75th")
	for _, sc := range r.Scenarios {
		row := []any{sc.String()}
		for _, v := range r.Speedup[sc] {
			row = append(row, FormatSpeedup(v))
		}
		t.AddRow(row...)
	}
	t.Caption = "(paper trend: smaller jobs benefit most, up to 11.6x at the 25th percentile)"
	return t.Render()
}

// --- Table 3: improvement by eligibility category ---

// Table3Result breaks Venn's improvement down by job device-requirement
// category per workload.
type Table3Result struct {
	Scenarios  []workload.Scenario
	Categories []string
	Speedup    map[workload.Scenario][]float64
}

// Table3 reproduces Table 3 at the given scale.
func Table3(scale Scale, seeds int) (*Table3Result, error) {
	if seeds <= 0 {
		seeds = 3
	}
	cats := deviceCategories()
	res := &Table3Result{
		Scenarios:  workload.Scenarios(),
		Categories: cats,
		Speedup:    make(map[workload.Scenario][]float64),
	}
	setups := make([]Setup, 0, len(res.Scenarios)*seeds)
	for _, sc := range res.Scenarios {
		for s := 0; s < seeds; s++ {
			setup := NewSetup(scale, int64(3000*int(sc)+s))
			setup.Jobs.Scenario = sc
			setups = append(setups, setup)
		}
	}
	cmps, err := CompareMany(setups, func(int) map[string]SchedulerFactory {
		return pick(StandardSchedulers(), "Random", "Venn")
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range res.Scenarios {
		acc := make([][]float64, len(cats))
		for s := 0; s < seeds; s++ {
			cmp := cmps[i*seeds+s]
			venn, random := cmp.Results["Venn"], cmp.Results["Random"]
			for i, cat := range cats {
				name := cat
				sp := SpeedupOverSubset(venn, random, func(j *job.Job) bool {
					return j.Requirement.Name == name
				})
				if sp > 0 {
					acc[i] = append(acc[i], sp)
				}
			}
		}
		row := make([]float64, len(cats))
		for i := range row {
			row[i] = stats.Mean(acc[i])
		}
		res.Speedup[sc] = row
	}
	return res, nil
}

// Render formats the result like the paper's Table 3.
func (r *Table3Result) Render() string {
	t := NewTable("Table 3: Venn JCT improvement by requirement category (vs Random)",
		append([]string{"Workload"}, r.Categories...)...)
	for _, sc := range r.Scenarios {
		row := []any{sc.String()}
		for _, v := range r.Speedup[sc] {
			row = append(row, FormatSpeedup(v))
		}
		t.AddRow(row...)
	}
	t.Caption = "(paper trend: jobs asking for scarcer resources benefit more)"
	return t.Render()
}

// --- Table 4: biased workloads case study ---

// Table4Result holds the biased-workload case study: per bias, the speed-up
// of FIFO, SRSF, and Venn over Random.
type Table4Result struct {
	Biases     []workload.Bias
	Schedulers []string
	Speedup    map[workload.Bias]map[string]float64
}

// Table4 reproduces Table 4 at the given scale.
func Table4(scale Scale, seeds int) (*Table4Result, error) {
	if seeds <= 0 {
		seeds = 3
	}
	res := &Table4Result{
		Biases:     []workload.Bias{workload.BiasGeneral, workload.BiasCompute, workload.BiasMemory, workload.BiasResource},
		Schedulers: []string{"FIFO", "SRSF", "Venn"},
		Speedup:    make(map[workload.Bias]map[string]float64),
	}
	setups := make([]Setup, 0, len(res.Biases)*seeds)
	for _, bias := range res.Biases {
		for s := 0; s < seeds; s++ {
			setup := NewSetup(scale, int64(4000*int(bias)+s))
			setup.Jobs.Bias = bias
			setups = append(setups, setup)
		}
	}
	cmps, err := CompareMany(setups, func(int) map[string]SchedulerFactory { return StandardSchedulers() })
	if err != nil {
		return nil, err
	}
	for i, bias := range res.Biases {
		res.Speedup[bias] = meanSpeedups(cmps[i*seeds:(i+1)*seeds], res.Schedulers)
	}
	return res, nil
}

// Render formats the result like the paper's Table 4.
func (r *Table4Result) Render() string {
	t := NewTable("Table 4: average JCT improvement on biased workloads (vs Random)",
		"Workload", "FIFO", "SRSF", "Venn")
	for _, bias := range r.Biases {
		row := []any{bias.String()}
		for _, name := range r.Schedulers {
			row = append(row, FormatSpeedup(r.Speedup[bias][name]))
		}
		t.AddRow(row...)
	}
	t.Caption = "(paper: Venn 1.94-2.27x across biased workloads)"
	return t.Render()
}

// --- shared helpers ---

func pick(all map[string]SchedulerFactory, names ...string) map[string]SchedulerFactory {
	out := make(map[string]SchedulerFactory, len(names))
	for _, n := range names {
		if f, ok := all[n]; ok {
			out[n] = f
		}
	}
	return out
}

func deviceCategories() []string {
	out := make([]string, 0, 4)
	for _, c := range categoriesOrdered() {
		out = append(out, c)
	}
	return out
}

func categoriesOrdered() []string {
	return []string{"General", "Compute-Rich", "Memory-Rich", "High-Perf"}
}

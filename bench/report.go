package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"venn/internal/stats"
)

// A run measured the sandbox more than the code, and is printed as unresolved
// rather than compared, when the process spent more than maxStealFrac of the
// capacity phase's wall time off the CPU, or when one open-loop frame in a
// hundred left the generator more than maxLateP99Us late.
const (
	maxStealFrac = 0.25
	maxLateP99Us = 200
)

// driverLine is the one-line JSON object the benchmark driver reads: exactly
// the end-to-end metrics, or on a traced run exactly the per-layer ones.
func driverLine(r *runResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// printRun prints every metric of one run by name, with its unit.
func printRun(w io.Writer, r *runResult, traced bool) {
	fmt.Fprintf(w, "== %s (seed %d): ops_attempted %d, ops_failed %d, correct %v\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.correct())
	for _, reason := range r.Reasons {
		fmt.Fprintf(w, "   INCORRECT: %s\n", reason)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-38s %16.4f %-6s (%s is better, bound %.0f%%)\n", d.name, r.EndToEnd[d.name], d.unit, d.better, 100*d.bound)
	}
	for _, d := range perLayer {
		v, ok := r.PerLayer[d.name]
		if !ok && !traced {
			continue // walk and sim metrics exist only on a traced run
		}
		fmt.Fprintf(w, "   %-38s %16.4f %s\n", d.name, v, d.unit)
	}
}

func unresolved(r *runResult) bool {
	return r.PerLayer["run.cpu_steal_frac"] > maxStealFrac || r.PerLayer["run.paced_late_p99_us"] > maxLateP99Us
}

// printSpread prints, per workload and end-to-end metric, the median,
// quartiles, extremes and relative spread over the sets. With check it also
// checks that no two resolved sets differ by more than the metric's bound,
// and reports whether that held.
func printSpread(w io.Writer, sets [][]*runResult, check bool) bool {
	ok := true
	fmt.Fprintf(w, "\n%-18s %-22s %3s %13s %13s %13s %13s %13s %8s\n",
		"workload", "metric", "n", "median", "q1", "q3", "min", "max", "iqr/med")
	for wi, wl := range workloads {
		var resolved []*runResult
		for _, set := range sets {
			r := set[wi]
			if unresolved(r) {
				fmt.Fprintf(w, "%-18s unresolved: cpu steal %.2f, generator late p99 %.0f us\n",
					wl.name, r.PerLayer["run.cpu_steal_frac"], r.PerLayer["run.paced_late_p99_us"])
				continue
			}
			resolved = append(resolved, r)
		}
		for _, d := range endToEnd {
			vals := make([]float64, len(resolved))
			for i, r := range resolved {
				vals[i] = r.EndToEnd[d.name]
			}
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			lo, hi := stats.Min(vals), stats.Max(vals)
			fmt.Fprintf(w, "%-18s %-22s %3d %13.4f %13.4f %13.4f %13.4f %13.4f %7.2f%%",
				wl.name, d.name, len(vals), stats.Median(vals), q1, q3, lo, hi, 100*spread(vals))
			if check && len(vals) > 1 {
				bound := d.bound
				if exactOnSeed[d.name] {
					bound = 0 // the sets share a seed
				}
				if diff := (hi - lo) / math.Abs(stats.Median(vals)); diff > bound {
					fmt.Fprintf(w, "  FAIL: sets differ by %.2f%%, bound %.0f%%", 100*diff, 100*bound)
					ok = false
				}
			}
			fmt.Fprintln(w)
		}
	}
	return ok
}

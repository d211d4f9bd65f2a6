// Command vennbench regenerates every table and figure of the paper's
// evaluation section and prints them as text reports.
//
// Usage:
//
//	vennbench                 # all experiments at default scale
//	vennbench -scale quick    # fast pass (CI-sized)
//	vennbench -only table1,fig11 -seeds 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"venn/internal/eval"
)

func main() {
	var (
		scaleFlag = flag.String("scale", "default", "quick|default|full")
		only      = flag.String("only", "", "comma-separated subset: table1..table4,fig2a,fig3,fig4,fig5,fig8a,fig9,fig10,fig11,fig12,fig13,fig14")
		seeds     = flag.Int("seeds", 3, "seeds per configuration")
	)
	flag.Parse()

	scale, err := parseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name != "" {
			want[name] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }

	var todo []eval.Experiment
	for _, ex := range eval.Experiments(scale, *seeds) {
		if selected(ex.Name) {
			todo = append(todo, ex)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Errorf("no experiments match -only %q", *only))
	}

	// Fan the experiments out across a bounded worker pool (each
	// underlying simulation run is deterministic via its own seed, so
	// concurrency cannot change any reported number), but print results
	// in the canonical order as they become ready.
	type outcome struct {
		out  string
		err  error
		secs float64
	}
	workers := eval.Workers()
	if workers > len(todo) {
		workers = len(todo)
	}
	fmt.Printf("vennbench: scale=%s seeds=%d workers=%d\n\n", scale, *seeds, workers)
	results := make([]chan outcome, len(todo))
	for i := range results {
		results[i] = make(chan outcome, 1)
	}
	for i, ex := range todo {
		go func() {
			release := eval.WorkerSlot()
			defer release()
			start := time.Now()
			out, err := ex.Run()
			results[i] <- outcome{out: out, err: err, secs: time.Since(start).Seconds()}
		}()
	}
	for i, ex := range todo {
		res := <-results[i]
		if res.err != nil {
			fatal(fmt.Errorf("%s: %w", ex.Name, res.err))
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", ex.Name, res.secs, res.out)
	}
}

func parseScale(s string) (eval.Scale, error) {
	switch strings.ToLower(s) {
	case "quick":
		return eval.ScaleQuick, nil
	case "default", "":
		return eval.ScaleDefault, nil
	case "full":
		return eval.ScaleFull, nil
	default:
		return 0, fmt.Errorf("unknown scale %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vennbench:", err)
	os.Exit(1)
}

// Command bench is this repository's benchmark of the check-in path: four
// workloads, six end-to-end metrics that are CPU-normalised, medians over
// fixed-work segments, or exact counts, and a traced single-threaded walk
// through each layer's public functions whose per-layer times are summed
// into a predicted cost and compared with the measured one. README.md in
// this directory is the manual; BENCHMARK.json at the repository root is the
// contract the benchmark driver holds it to.
//
//	go run -C bench . -workload surplus-stream   # one workload, in this process
//	go run -C bench . -workload demand-stream -trace 1
//	go run -C bench .                            # all four, one process each
//	go run -C bench . -repeat 5 -check-bounds    # spread table and self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// outDir is where span files and per-run result files go, relative to this
// package's directory (the working directory under go run -C bench); it is
// git-ignored.
const outDir = "out"

func main() {
	var (
		name   = flag.String("workload", "", "run this one workload in this process; empty runs all, one process each")
		seed   = flag.Int64("seed", 1, "seed of the bench's input generators (fleet, device order, jobs); the daemons never see it")
		_      = flag.Int("seconds", 0, "accepted because the benchmark driver passes it; a run is sized in operations and ignores it")
		traced = flag.Int("trace", 0, "1 also runs the traced walk, prints the per-layer metrics and writes out/<workload>.spans.jsonl")
		smoke  = flag.Bool("smoke", false, "tiny scale: 2,000 devices, one short segment per phase")
		repeat = flag.Int("repeat", 1, "run this many full sets and print the spread of every end-to-end metric")
		check  = flag.Bool("check-bounds", false, "with -repeat: exit non-zero if the sets differ by more than a metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *repeat < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	sc := fullScale()
	if *smoke {
		sc = smokeScale()
	}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res, err := runWorkload(runOptions{w: w, seed: *seed, sc: sc, trace: *traced == 1, outDir: outDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := writeResultFile(outDir, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printRun(os.Stdout, res, *traced == 1)
		fmt.Println(driverLine(res, *traced == 1))
		if !res.correct() {
			for _, reason := range res.Reasons {
				fmt.Fprintln(os.Stderr, "bench: incorrect:", reason)
			}
			os.Exit(1)
		}
		return
	}

	// All workloads: one child process each, so peak memory, set-up time and
	// GC state are per workload.
	sets := make([][]*runResult, *repeat)
	failed := false
	for i := range sets {
		for _, w := range workloads {
			res, err := runChild(w, *seed, *traced, *smoke)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			printRun(os.Stdout, res, *traced == 1)
			if !res.correct() {
				failed = true
			}
			sets[i] = append(sets[i], res)
		}
	}
	if *repeat > 1 && !printSpread(os.Stdout, sets, *check) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// runChild runs one workload in a child process of this same binary and
// reads back its result file.
func runChild(w workload, seed int64, traced int, smoke bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", strconv.Itoa(traced),
	}
	if smoke {
		args = append(args, "-smoke")
	}
	// A stale file from an earlier run must not stand in for a child that died.
	if err := os.Remove(resultPath(outDir, w.name)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr // the child's table goes nowhere; the parent prints its own
	runErr := cmd.Run()
	res, err := readResultFile(outDir, w.name)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	return res, nil
}

func resultPath(dir, workload string) string {
	return filepath.Join(dir, workload+".result.json")
}

func writeResultFile(dir string, r *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(dir, r.Workload), append(buf, '\n'), 0o644)
}

func readResultFile(dir, workload string) (*runResult, error) {
	buf, err := os.ReadFile(resultPath(dir, workload))
	if err != nil {
		return nil, err
	}
	res := new(runResult)
	if err := json.Unmarshal(buf, res); err != nil {
		return nil, fmt.Errorf("%s: %w", resultPath(dir, workload), err)
	}
	return res, nil
}

// Command benchguard is the CI gate over the serving-path benchmarks: it
// compares a freshly measured vennload report against the committed
// BENCH_serve.json and fails when batched+sharded HTTP throughput — or,
// when both reports carry one, streaming-transport throughput — regressed
// beyond the allowed margin, and (optionally) when the incremental-plan hit
// rate of a live smoke run fell below its floor.
//
//	benchguard -baseline BENCH_serve.json -current BENCH_serve_fresh.json \
//	    -max-regress 0.20 -live BENCH_serve_live.json -min-hit-rate 0.90
//
// Observability gate: -obs-smoke takes reports measured with request-span
// sampling at its default rate and asserts sampling was live (spans reached
// the flight recorder); with -obs-ref (sampling-off reports of the same
// rungs) it bounds the stream-rung throughput cost of observability at
// -max-obs-overhead (default 3%). Both flags take comma-separated report
// lists, and the overhead comparison uses the best stream rate on each side:
// single 5s runs swing ±15% on small CI runners, so best-of-N against
// best-of-N is the noise-robust estimate of the real cost.
//
// Core-scaling gate: -multicore-min-scale asserts the stream-mc rung (full
// GOMAXPROCS, per-core listener shards) scales over the single-core stream
// rung by at least the given factor. It compares rungs inside one report, so
// it applies on any hardware; it is skipped (with a note) on single-CPU
// hosts, where core scaling is unmeasurable.
//
// Federation fast-path gates: -min-cluster-direct-speedup asserts the
// cluster-direct rung (ring-aware clients, near-zero forwards) reaches at
// least the given fraction of the single-daemon stream rung within the same
// report (self-skipping when the report predates the rung), and every
// cluster-direct run must show nonzero direct-routed batches with forwards
// bounded to fetch-race noise. -chaos-smoke takes a report from a run where
// one federation member was killed mid-run under ring-aware clients and
// fails on any lost check-in, any forward error, or if no node ever saw a
// peer down (i.e. nothing was actually killed).
//
// Core commit pipeline gate: the stream-v2-contended rung (demand-heavy
// traffic committing through the scheduler core) joins the cross-report
// regression checks like any other rung, and -min-contended-frac asserts
// within one report that contended throughput stays above the given
// fraction of the surplus stream rung — the floor on how much the core
// commit path may cost relative to the lock-free snapshot path. Both
// self-skip (with a note) on reports that predate the rung.
//
// Cross-report throughput comparisons are only meaningful on the same
// hardware, so the regression checks are skipped (with a note) when the
// recorded num_cpu differs between the two reports — CI runners and
// developer laptops guard against themselves, not against each other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"venn/internal/server"
)

// report mirrors the subset of vennload's benchReport the guard reads. The
// ladder shape labels each run with a transport; pre-stream reports lack
// the field, which decodes as "" and classifies as HTTP. Cluster runs
// additionally carry each node's federation counters, and single-daemon runs
// the daemon's /v1/metrics, both in the server's own types.
type report struct {
	Schema string `json:"schema"`
	NumCPU int    `json:"num_cpu"`
	Runs   []run  `json:"runs"`
}

type run struct {
	Mode           string  `json:"mode"`
	Transport      string  `json:"transport"`
	Batch          int     `json:"batch"`
	CheckIns       int64   `json:"checkins"`
	CheckInsPerSec float64 `json:"checkins_per_sec"`
	Errors         int64   `json:"errors"`
	Nodes          []struct {
		Node string `json:"node"`
		server.ClusterTelemetry
	} `json:"nodes"`
	ServerMetrics *server.Metrics `json:"server_metrics"`
}

func load(path string) (report, error) {
	var r report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// loadAll loads a comma-separated list of report paths.
func loadAll(paths string) ([]report, error) {
	var rs []report
	for _, p := range strings.Split(paths, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		r, err := load(p)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no report paths in %q", paths)
	}
	return rs, nil
}

// bestStreamRate returns the highest stream-rung rate across the reports —
// the least-interfered-with sample of a noisy repeated measurement.
func bestStreamRate(rs []report) (float64, bool) {
	best, ok := 0.0, false
	for _, r := range rs {
		if rate, has := streamRate(r); has && rate > best {
			best, ok = rate, true
		}
	}
	return best, ok
}

// batchedRate finds the batched HTTP rung (transport absent or "http").
func batchedRate(r report) (float64, bool) {
	for _, run := range r.Runs {
		if run.Mode == "batched" && run.Transport != "stream" {
			return run.CheckInsPerSec, true
		}
	}
	return 0, false
}

// rateByMode finds the run carrying the exact mode label.
func rateByMode(r report, mode string) (float64, bool) {
	for _, run := range r.Runs {
		if run.Mode == mode {
			return run.CheckInsPerSec, true
		}
	}
	return 0, false
}

// streamRate finds the single-daemon, single-core streaming-transport rung.
// The exact-mode match matters since the ladder has other stream rungs
// (stream-mc, stream-v2-contended) that "first stream run" could pick.
// Reports predating the mode labels fall back to the first non-cluster
// stream run.
func streamRate(r report) (float64, bool) {
	if rate, ok := rateByMode(r, "stream"); ok {
		return rate, true
	}
	for _, run := range r.Runs {
		if run.Transport == "stream" && run.Mode != "cluster" {
			return run.CheckInsPerSec, true
		}
	}
	return 0, false
}

// clusterRate finds the federation rung.
func clusterRate(r report) (float64, bool) {
	for _, run := range r.Runs {
		if run.Mode == "cluster" {
			return run.CheckInsPerSec, true
		}
	}
	return 0, false
}

// checkClusterRun validates a seed-only federation run (mode "cluster") end
// to end: zero routing errors, every member both originated and received
// forwards (a silent all-local run would flatter throughput while testing
// nothing), and — when a floor is given — aggregate throughput above it.
// Ring-aware runs (mode "cluster-direct") invert the forwarding expectation;
// use checkClusterDirectRun for those.
func checkClusterRun(r run, label string, floor float64) bool {
	failed := false
	if r.Errors > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s federation run had %d routing errors\n", label, r.Errors)
		failed = true
	}
	if len(r.Nodes) < 2 {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s federation run has %d nodes, want >= 2\n", label, len(r.Nodes))
		return true
	}
	for _, n := range r.Nodes {
		if n.ClusterForwardsOut == 0 || n.ClusterForwardsIn == 0 {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s node %s did not forward (out=%d in=%d)\n",
				label, n.Node, n.ClusterForwardsOut, n.ClusterForwardsIn)
			failed = true
		}
	}
	if floor > 0 && r.CheckInsPerSec < floor {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s aggregate throughput %.0f/s below floor %.0f/s\n",
			label, r.CheckInsPerSec, floor)
		failed = true
	}
	if !failed {
		fmt.Printf("benchguard: %s federation run OK (%.0f/s aggregate, %d nodes all forwarding)\n",
			label, r.CheckInsPerSec, len(r.Nodes))
	}
	return failed
}

// checkClusterDirectRun validates a ring-aware federation run (mode
// "cluster-direct"): zero routing errors, zero forward errors, every member
// serving direct-routed batches, and a near-idle forward path — clients that
// know the ring should leave the daemons nothing to forward beyond the
// handful of batches sent before the first topology fetch completes (bounded
// at 1% of the direct-routed count, minimum 16 for short runs).
func checkClusterDirectRun(r run, label string) bool {
	failed := false
	if r.Errors > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s direct-routing run had %d routing errors\n", label, r.Errors)
		failed = true
	}
	if len(r.Nodes) < 2 {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s direct-routing run has %d nodes, want >= 2\n", label, len(r.Nodes))
		return true
	}
	var direct, out int64
	for _, n := range r.Nodes {
		direct += n.DirectRoutedBatches
		out += n.ClusterForwardsOut
		if n.ClusterForwardErrors > 0 {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s node %s had %d forward errors\n", label, n.Node, n.ClusterForwardErrors)
			failed = true
		}
		if n.DirectRoutedBatches == 0 {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s node %s served no direct-routed batches (ring-aware clients not routing)\n",
				label, n.Node)
			failed = true
		}
	}
	if slack := max(direct/100, 16); out > slack {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s forward path not idle: %d forwards out vs %d direct-routed batches (allowed %d)\n",
			label, out, direct, slack)
		failed = true
	}
	if !failed {
		fmt.Printf("benchguard: %s direct-routing run OK (%.0f/s aggregate, %d direct-routed batches, %d forwards)\n",
			label, r.CheckInsPerSec, direct, out)
	}
	return failed
}

// checkChaosRun validates a chaos smoke: a federation run during which one
// member was killed. Ring-aware clients must have absorbed the loss — zero
// client-visible errors (every check-in either landed or was retried onto a
// live member; an error here is a potentially lost check-in), zero forward
// errors on the survivors (forwards to the dead peer must classify as local
// fallbacks, not ambiguous failures), and at least one surviving member must
// actually have seen a peer go down, or the run proves nothing.
func checkChaosRun(r run, label string) bool {
	failed := false
	if r.Errors > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s chaos run lost check-ins: %d client-side errors\n", label, r.Errors)
		failed = true
	}
	if r.CheckIns == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s chaos run served no check-ins\n", label)
		failed = true
	}
	sawDown := false
	for _, n := range r.Nodes {
		if n.ClusterForwardErrors > 0 {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s node %s had %d forward errors during the kill\n",
				label, n.Node, n.ClusterForwardErrors)
			failed = true
		}
		if n.ClusterPeersDown > 0 {
			sawDown = true
		}
	}
	if !sawDown {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL %s chaos run: no surviving node reports a down peer (was anything killed?)\n", label)
		failed = true
	}
	if !failed {
		fmt.Printf("benchguard: %s chaos run OK (%d check-ins, zero lost, zero forward errors, kill observed)\n",
			label, r.CheckIns)
	}
	return failed
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_serve.json", "committed benchmark report")
		currentPath  = flag.String("current", "", "freshly measured -compare report")
		maxRegress   = flag.Float64("max-regress", 0.20, "maximum allowed fractional throughput regression")
		livePath     = flag.String("live", "", "live-daemon smoke report to check the plan hit rate in (optional)")
		minHitRate   = flag.Float64("min-hit-rate", 0.90, "minimum incremental plan hit rate for the smoke run")
		clusterPath  = flag.String("cluster-smoke", "", "live federation smoke report: every node must forward, zero routing errors (optional)")
		clusterFloor = flag.Float64("cluster-floor", 0, "absolute aggregate-throughput floor for -cluster-smoke (0 disables)")
		floorFrom    = flag.String("cluster-floor-from", "", "derive the -cluster-smoke floor from this single-daemon report's stream rate")
		floorFrac    = flag.Float64("cluster-floor-frac", 0.25, "fraction of -cluster-floor-from's rate the federation aggregate must reach")
		obsSmoke     = flag.String("obs-smoke", "", "comma-separated reports measured with span sampling at the default rate; sampling must be live (spans recorded) and the best stream rung must stay within -max-obs-overhead of -obs-ref's")
		obsRef       = flag.String("obs-ref", "", "comma-separated sampling-off reference reports for the observability overhead gate")
		maxObsOvh    = flag.Float64("max-obs-overhead", 0.03, "maximum fractional stream-throughput loss attributable to request-span sampling")
		multicoreMin = flag.Float64("multicore-min-scale", 0, "minimum stream-mc over single-core stream throughput ratio within the -current report (0 disables; skipped on single-CPU hosts)")
		minDirect    = flag.Float64("min-cluster-direct-speedup", 0, "minimum cluster-direct (ring-aware clients) over single-daemon stream throughput ratio within the -current report (0 disables; skipped when the report has no cluster-direct rung)")
		minContended = flag.Float64("min-contended-frac", 0, "minimum stream-v2-contended (demand-heavy) over surplus stream throughput ratio within the -current report (0 disables; skipped when the report has no contended rung)")
		chaosPath    = flag.String("chaos-smoke", "", "federation chaos smoke report (one member killed mid-run under ring-aware clients): zero lost check-ins, zero forward errors (optional)")
	)
	flag.Parse()

	failed := false

	if *currentPath != "" {
		baseline, err := load(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		current, err := load(*currentPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		if baseline.NumCPU != current.NumCPU {
			fmt.Printf("benchguard: num_cpu differs (%d baseline vs %d current); skipping throughput checks\n",
				baseline.NumCPU, current.NumCPU)
		} else {
			check := func(label string, rate func(report) (float64, bool)) {
				baseRate, okB := rate(baseline)
				curRate, okC := rate(current)
				switch {
				case !okB:
					fmt.Printf("benchguard: baseline has no %s run; skipping its throughput check\n", label)
				case !okC:
					fmt.Fprintf(os.Stderr, "benchguard: FAIL current report lost its %s run (baseline has one)\n", label)
					failed = true
				case curRate < baseRate*(1-*maxRegress):
					fmt.Fprintf(os.Stderr, "benchguard: FAIL %s throughput %.0f/s regressed more than %.0f%% below baseline %.0f/s\n",
						label, curRate, *maxRegress*100, baseRate)
					failed = true
				default:
					fmt.Printf("benchguard: %s throughput %.0f/s vs baseline %.0f/s (%.2fx) — OK\n",
						label, curRate, baseRate, curRate/baseRate)
				}
			}
			check("batched-http", batchedRate)
			check("stream", streamRate)
			check("stream-v2-contended", func(r report) (float64, bool) { return rateByMode(r, "stream-v2-contended") })
			check("cluster", clusterRate)
			check("cluster-direct", func(r report) (float64, bool) { return rateByMode(r, "cluster-direct") })
			check("stream-mc", func(r report) (float64, bool) { return rateByMode(r, "stream-mc") })
		}
		// Whatever the hardware, a committed-shape cluster run must actually
		// have federated: every node forwarding, zero routing errors. The
		// cluster-direct rung inverts that expectation — ring-aware clients
		// mean direct hits and near-zero forwards.
		for _, r := range current.Runs {
			switch r.Mode {
			case "cluster":
				failed = checkClusterRun(r, "compare", 0) || failed
			case "cluster-direct":
				failed = checkClusterDirectRun(r, "compare") || failed
			}
		}

		// Within-report ratio gates: same process, same hardware, so they
		// hold regardless of what machine recorded the committed baseline.
		if *multicoreMin > 0 {
			if current.NumCPU <= 1 {
				fmt.Println("benchguard: single-CPU host; skipping the multi-core scaling gate")
			} else {
				mcRate, okM := rateByMode(current, "stream-mc")
				scRate, okS := rateByMode(current, "stream")
				switch {
				case !okM || !okS:
					fmt.Fprintf(os.Stderr, "benchguard: FAIL -multicore-min-scale on a %d-CPU host needs both stream and stream-mc rungs in the current report\n", current.NumCPU)
					failed = true
				case mcRate < scRate**multicoreMin:
					fmt.Fprintf(os.Stderr, "benchguard: FAIL multi-core stream %.0f/s is only %.2fx the single-core rung's %.0f/s (floor %.2fx on %d CPUs)\n",
						mcRate, mcRate/scRate, scRate, *multicoreMin, current.NumCPU)
					failed = true
				default:
					fmt.Printf("benchguard: multi-core stream %.0f/s vs single-core %.0f/s (%.2fx >= %.2fx on %d CPUs) — OK\n",
						mcRate, scRate, mcRate/scRate, *multicoreMin, current.NumCPU)
				}
			}
		}
		if *minDirect > 0 {
			directRate, okD := rateByMode(current, "cluster-direct")
			scRate, okS := rateByMode(current, "stream")
			switch {
			case !okD:
				// Older reports predate the ring-aware rung; that is a
				// baseline problem, not a regression, so self-skip.
				fmt.Println("benchguard: report has no cluster-direct rung; skipping the direct-routing speedup gate")
			case !okS:
				fmt.Fprintln(os.Stderr, "benchguard: FAIL -min-cluster-direct-speedup needs a stream rung in the current report")
				failed = true
			case directRate < scRate**minDirect:
				fmt.Fprintf(os.Stderr, "benchguard: FAIL cluster-direct %.0f/s is only %.2fx the single-daemon stream rung's %.0f/s (floor %.2fx)\n",
					directRate, directRate/scRate, scRate, *minDirect)
				failed = true
			default:
				fmt.Printf("benchguard: cluster-direct %.0f/s vs single-daemon stream %.0f/s (%.2fx >= %.2fx) — OK\n",
					directRate, scRate, directRate/scRate, *minDirect)
			}
		}
		if *minContended > 0 {
			conRate, okC := rateByMode(current, "stream-v2-contended")
			scRate, okS := rateByMode(current, "stream")
			switch {
			case !okC:
				// Older reports predate the demand-heavy rung; self-skip
				// rather than fail a baseline problem as a regression.
				fmt.Println("benchguard: report has no stream-v2-contended rung; skipping the contended-throughput gate")
			case !okS:
				fmt.Fprintln(os.Stderr, "benchguard: FAIL -min-contended-frac needs a stream rung in the current report")
				failed = true
			case conRate < scRate**minContended:
				fmt.Fprintf(os.Stderr, "benchguard: FAIL contended stream %.0f/s is only %.2fx the surplus rung's %.0f/s (floor %.2fx)\n",
					conRate, conRate/scRate, scRate, *minContended)
				failed = true
			default:
				fmt.Printf("benchguard: contended stream %.0f/s vs surplus %.0f/s (%.2fx >= %.2fx) — OK\n",
					conRate, scRate, conRate/scRate, *minContended)
			}
		}
	}

	if *livePath != "" {
		live, err := load(*livePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		checked := false
		for _, run := range live.Runs {
			mt := run.ServerMetrics
			if mt == nil || mt.PlanRebuilds+mt.PlanPatches == 0 {
				continue
			}
			checked = true
			if mt.PlanIncrementalHitRate < *minHitRate {
				fmt.Fprintf(os.Stderr, "benchguard: FAIL plan hit rate %.1f%% below %.1f%% (%d rebuilds, %d patches)\n",
					100*mt.PlanIncrementalHitRate, 100**minHitRate, mt.PlanRebuilds, mt.PlanPatches)
				failed = true
			} else {
				fmt.Printf("benchguard: plan hit rate %.1f%% (%d rebuilds, %d patches) — OK\n",
					100*mt.PlanIncrementalHitRate, mt.PlanRebuilds, mt.PlanPatches)
			}
		}
		if !checked {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL live report has no plan telemetry to check")
			failed = true
		}
	}

	if *clusterPath != "" {
		smoke, err := load(*clusterPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		floor := *clusterFloor
		if *floorFrom != "" {
			single, err := load(*floorFrom)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchguard:", err)
				os.Exit(1)
			}
			if rate, ok := streamRate(single); ok {
				floor = rate * *floorFrac
				fmt.Printf("benchguard: federation floor = %.2f x single-daemon stream %.0f/s = %.0f/s\n",
					*floorFrac, rate, floor)
			} else {
				fmt.Printf("benchguard: %s has no single-daemon stream run; skipping the federation floor\n", *floorFrom)
			}
		}
		checkedCluster := false
		for _, r := range smoke.Runs {
			if r.Mode != "cluster" {
				continue
			}
			checkedCluster = true
			failed = checkClusterRun(r, "smoke", floor) || failed
		}
		if !checkedCluster {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL cluster-smoke report has no cluster run")
			failed = true
		}
	}

	if *chaosPath != "" {
		chaos, err := load(*chaosPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		checkedChaos := false
		for _, r := range chaos.Runs {
			if r.Mode != "cluster" && r.Mode != "cluster-direct" {
				continue
			}
			checkedChaos = true
			failed = checkChaosRun(r, "smoke") || failed
		}
		if !checkedChaos {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL chaos-smoke report has no cluster run")
			failed = true
		}
	}

	if *obsSmoke != "" {
		smokes, err := loadAll(*obsSmoke)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		// Sampling must actually have been live in the smoke runs, or the
		// overhead comparison silently measures nothing.
		sampled := false
		for _, smoke := range smokes {
			for _, r := range smoke.Runs {
				if mt := r.ServerMetrics; mt != nil && mt.ObsSampleEvery > 0 && mt.FlightRecorded > 0 {
					sampled = true
				}
			}
		}
		if !sampled {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL no obs-smoke report shows live span sampling (obs_sample_every > 0 with flight records)")
			failed = true
		}
		if *obsRef != "" {
			refs, err := loadAll(*obsRef)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchguard:", err)
				os.Exit(1)
			}
			refRate, okR := bestStreamRate(refs)
			curRate, okC := bestStreamRate(smokes)
			switch {
			case refs[0].NumCPU != smokes[0].NumCPU:
				fmt.Printf("benchguard: num_cpu differs (%d ref vs %d obs smoke); skipping the observability overhead check\n",
					refs[0].NumCPU, smokes[0].NumCPU)
			case !okR || !okC:
				fmt.Println("benchguard: observability overhead check needs a stream run on both sides; skipping")
			case curRate < refRate*(1-*maxObsOvh):
				fmt.Fprintf(os.Stderr, "benchguard: FAIL sampled stream throughput %.0f/s is more than %.1f%% below the sampling-off %.0f/s (best of %d vs %d runs)\n",
					curRate, *maxObsOvh*100, refRate, len(smokes), len(refs))
				failed = true
			default:
				fmt.Printf("benchguard: observability overhead %.1f%% of stream throughput (%.0f/s sampled vs %.0f/s off, best of %d vs %d runs) — OK\n",
					100*(1-curRate/refRate), curRate, refRate, len(smokes), len(refs))
			}
		}
	}

	if failed {
		os.Exit(1)
	}
}

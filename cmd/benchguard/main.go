// Command benchguard checks the reports CI's bench job takes with vennload
// against live daemons. Each check fails on a wrong answer, not on a slow
// run: throughput belongs to bench/, the harness that can resolve its own
// bounds.
//
// -live: the smoke run's incremental plan hit rate reaches 90%.
//
// -cluster-smoke: every federation run is checked by its mode. A seed-only
// run (cluster) has every member forwarding and zero routing errors, and
// with -cluster-floor-from an aggregate rate above a quarter of the
// single-daemon stream smoke. A ring-aware run (cluster-direct) has
// direct-routed batches on every member and an idle forward path.
//
// -chaos-smoke: a federation run during which one member was killed lost no
// check-in, hit no forward error, and saw the peer go down.
//
// -obs-smoke: request-span sampling was live (spans reached the flight
// recorder).
//
//	benchguard -live BENCH_serve_live.json \
//	    -cluster-smoke BENCH_serve_direct_live.json,BENCH_serve_cluster_live.json \
//	    -cluster-floor-from BENCH_serve_stream_live.json \
//	    -chaos-smoke BENCH_serve_chaos_live.json -obs-smoke BENCH_serve_stream_live.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"venn/cmd/internal/loadreport"
)

const (
	// minHitRate is the smoke run's floor on the incremental plan hit rate.
	minHitRate = 0.90
	// clusterFloorFrac is the share of the single-daemon stream rate a
	// seed-only federation run must reach, a coarse liveness floor rather
	// than a throughput gate.
	clusterFloorFrac = 0.25
)

// report is one vennload report and the path it was read from.
type report struct {
	path string
	loadreport.Report
}

// mustLoad reads one report, exiting when it cannot be read.
func mustLoad(path string) report {
	r := report{path: path}
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, &r.Report)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", path, err)
		os.Exit(1)
	}
	return r
}

// mustLoadAll loads a comma-separated list of report paths.
func mustLoadAll(paths string) []report {
	var rs []report
	for _, p := range strings.Split(paths, ",") {
		if p = strings.TrimSpace(p); p != "" {
			rs = append(rs, mustLoad(p))
		}
	}
	return rs
}

// checkClusterRun validates a seed-only federation run (mode "cluster") end
// to end: zero routing errors, every member both originated and received
// forwards (a silent all-local run would flatter throughput while testing
// nothing), and — when a floor is given — aggregate throughput above it.
// Ring-aware runs (mode "cluster-direct") invert the forwarding expectation;
// use checkClusterDirectRun for those.
func checkClusterRun(r loadreport.Run, label string, floor float64) bool {
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
// at 1% of the direct-routed count, minimum 16 for short runs). The node
// counters are cumulative since daemon start, so the run must come before
// any seed-only pass on the same daemons.
func checkClusterDirectRun(r loadreport.Run, label string) bool {
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

// checkClusterSmoke checks every federation run in the reports by its mode:
// seed-only runs against checkClusterRun (with the floor), ring-aware runs
// against checkClusterDirectRun. Reports with no federation run fail.
func checkClusterSmoke(rs []report, floor float64) bool {
	failed, checked := false, false
	for _, r := range rs {
		for _, run := range r.Runs {
			switch run.Mode {
			case "cluster":
				failed = checkClusterRun(run, r.path, floor) || failed
			case "cluster-direct":
				failed = checkClusterDirectRun(run, r.path) || failed
			default:
				continue
			}
			checked = true
		}
	}
	if !checked {
		fmt.Fprintln(os.Stderr, "benchguard: FAIL cluster-smoke reports have no federation run")
		failed = true
	}
	return failed
}

// clusterFloor is clusterFloorFrac of the single-daemon report's stream
// rate, or 0 (no floor) when the report has no stream run.
func clusterFloor(single report) float64 {
	for _, r := range single.Runs {
		if r.Mode == "stream" {
			floor := r.CheckInsPerSec * clusterFloorFrac
			fmt.Printf("benchguard: federation floor = %.2f x single-daemon stream %.0f/s = %.0f/s\n",
				clusterFloorFrac, r.CheckInsPerSec, floor)
			return floor
		}
	}
	fmt.Printf("benchguard: %s has no single-daemon stream run; skipping the federation floor\n", single.path)
	return 0
}

// checkChaosRun validates a chaos smoke: a federation run during which one
// member was killed. Ring-aware clients must have absorbed the loss — zero
// client-visible errors (every check-in either landed or was retried onto a
// live member; an error here is a potentially lost check-in), zero forward
// errors on the survivors (forwards to the dead peer must classify as local
// fallbacks, not ambiguous failures), and at least one surviving member must
// actually have seen a peer go down, or the run proves nothing.
func checkChaosRun(r loadreport.Run, label string) bool {
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

// checkChaosSmoke runs checkChaosRun over the report's federation runs; a
// report with none fails.
func checkChaosSmoke(r report) bool {
	failed, checked := false, false
	for _, run := range r.Runs {
		if run.Mode != "cluster" && run.Mode != "cluster-direct" {
			continue
		}
		checked = true
		failed = checkChaosRun(run, r.path) || failed
	}
	if !checked {
		fmt.Fprintln(os.Stderr, "benchguard: FAIL chaos-smoke report has no cluster run")
		failed = true
	}
	return failed
}

// checkLive gates the live smoke's incremental plan hit rate: every run with
// plan telemetry must reach minHitRate, and a report with none fails.
func checkLive(r report) bool {
	failed, checked := false, false
	for _, run := range r.Runs {
		mt := run.ServerMetrics
		if mt == nil || mt.PlanRebuilds+mt.PlanPatches == 0 {
			continue
		}
		checked = true
		if mt.PlanIncrementalHitRate < minHitRate {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL plan hit rate %.1f%% below %.1f%% (%d rebuilds, %d patches)\n",
				100*mt.PlanIncrementalHitRate, 100*minHitRate, mt.PlanRebuilds, mt.PlanPatches)
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
	return failed
}

// checkObsSmoke fails unless some report shows live span sampling: a
// nonzero sampling rate with requests in the flight recorder.
func checkObsSmoke(rs []report) bool {
	for _, r := range rs {
		for _, run := range r.Runs {
			if mt := run.ServerMetrics; mt != nil && mt.ObsSampleEvery > 0 && mt.FlightRecorded > 0 {
				fmt.Printf("benchguard: span sampling live (1 in %d, %d flight records) — OK\n", mt.ObsSampleEvery, mt.FlightRecorded)
				return false
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchguard: FAIL no obs-smoke report shows live span sampling (obs_sample_every > 0 with flight records)")
	return true
}

func main() {
	var (
		livePath     = flag.String("live", "", "live-daemon smoke report to check the plan hit rate in (optional)")
		clusterPaths = flag.String("cluster-smoke", "", "comma-separated live federation reports, each run checked by its mode: cluster (every node forwards, zero routing errors) or cluster-direct (direct-routed batches on every node, forward path idle) (optional)")
		floorFrom    = flag.String("cluster-floor-from", "", "derive a floor for -cluster-smoke's seed-only runs (a quarter of this single-daemon report's stream rate)")
		chaosPath    = flag.String("chaos-smoke", "", "federation chaos smoke report (one member killed mid-run under ring-aware clients): zero lost check-ins, zero forward errors (optional)")
		obsPaths     = flag.String("obs-smoke", "", "comma-separated reports measured with span sampling at the default rate: sampling must be live (spans recorded) (optional)")
	)
	flag.Parse()

	failed := false
	if *livePath != "" {
		failed = checkLive(mustLoad(*livePath)) || failed
	}
	if *clusterPaths != "" {
		floor := 0.0
		if *floorFrom != "" {
			floor = clusterFloor(mustLoad(*floorFrom))
		}
		failed = checkClusterSmoke(mustLoadAll(*clusterPaths), floor) || failed
	}
	if *chaosPath != "" {
		failed = checkChaosSmoke(mustLoad(*chaosPath)) || failed
	}
	if *obsPaths != "" {
		failed = checkObsSmoke(mustLoadAll(*obsPaths)) || failed
	}
	if failed {
		os.Exit(1)
	}
}

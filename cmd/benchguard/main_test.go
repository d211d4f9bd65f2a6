package main

import (
	"testing"

	"venn/cmd/internal/loadreport"
	"venn/internal/server"
)

type run = loadreport.Run

// rep builds a report read from path.
func rep(path string, runs ...run) report {
	return report{path: path, Report: loadreport.Report{Runs: runs}}
}

// member builds one federation node row.
func member(name string, t server.ClusterTelemetry) loadreport.Node {
	return loadreport.Node{Node: name, ClusterTelemetry: t}
}

func fedRun(mode string, nodes ...loadreport.Node) run {
	return run{Mode: mode, CheckIns: 100_000, CheckInsPerSec: 50_000, Nodes: nodes}
}

// seedOnly is a healthy seed-only federation run: both members forward.
func seedOnly() run {
	return fedRun("cluster",
		member("a", server.ClusterTelemetry{ClusterForwardsOut: 700, ClusterForwardsIn: 690}),
		member("b", server.ClusterTelemetry{ClusterForwardsOut: 690, ClusterForwardsIn: 700}))
}

// ringAware is a healthy ring-aware run: 2,000 direct-routed batches (so
// max(2000/100, 16) = 20 forwards allowed) and a few pre-fetch forwards.
func ringAware(outA, outB int64) run {
	return fedRun("cluster-direct",
		member("a", server.ClusterTelemetry{DirectRoutedBatches: 1000, ClusterForwardsOut: outA}),
		member("b", server.ClusterTelemetry{DirectRoutedBatches: 1000, ClusterForwardsOut: outB}))
}

func TestClusterDirectRun(t *testing.T) {
	zeroDirect := ringAware(0, 0)
	zeroDirect.Nodes[1].DirectRoutedBatches = 0
	fwdErr := ringAware(0, 0)
	fwdErr.Nodes[0].ClusterForwardErrors = 1
	routeErr := ringAware(0, 0)
	routeErr.Errors = 3
	for _, tc := range []struct {
		name string
		r    run
		fail bool
	}{
		{"idle forward path", ringAware(3, 2), false},
		{"forwards at the slack", ringAware(10, 10), false},
		{"forwards above max(direct/100, 16)", ringAware(11, 10), true},
		{"node with zero direct batches", zeroDirect, true},
		{"forward error", fwdErr, true},
		{"routing errors", routeErr, true},
		{"one node", fedRun("cluster-direct", member("a", server.ClusterTelemetry{DirectRoutedBatches: 5})), true},
	} {
		if got := checkClusterDirectRun(tc.r, tc.name); got != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
	// The slack floor is 16 for short runs.
	short := fedRun("cluster-direct",
		member("a", server.ClusterTelemetry{DirectRoutedBatches: 10, ClusterForwardsOut: 16}),
		member("b", server.ClusterTelemetry{DirectRoutedBatches: 10}))
	if checkClusterDirectRun(short, "short") {
		t.Error("16 forwards on a short run should pass")
	}
	short.Nodes[1].ClusterForwardsOut = 1
	if !checkClusterDirectRun(short, "short") {
		t.Error("17 forwards on a short run should fail")
	}
}

func TestClusterRun(t *testing.T) {
	silent := seedOnly()
	silent.Nodes[1].ClusterForwardsOut = 0
	deaf := seedOnly()
	deaf.Nodes[0].ClusterForwardsIn = 0
	routeErr := seedOnly()
	routeErr.Errors = 1
	for _, tc := range []struct {
		name  string
		r     run
		floor float64
		fail  bool
	}{
		{"every node forwarding", seedOnly(), 0, false},
		{"above the floor", seedOnly(), 40_000, false},
		{"below the floor", seedOnly(), 60_000, true},
		{"node that forwarded nothing", silent, 0, true},
		{"node that received nothing", deaf, 0, true},
		{"routing errors", routeErr, 0, true},
		{"one node", fedRun("cluster", seedOnly().Nodes[0]), 0, true},
	} {
		if got := checkClusterRun(tc.r, tc.name, tc.floor); got != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
}

func TestClusterSmokeDispatchesByMode(t *testing.T) {
	direct := rep("direct.json", ringAware(1, 0))
	seed := rep("cluster.json", seedOnly())
	if checkClusterSmoke([]report{direct, seed}, 0) {
		t.Error("a healthy ring-aware and a healthy seed-only report should pass")
	}
	// A ring-aware report taken after a seed-only pass on the same daemons
	// carries that pass's forwards in its cumulative node counters.
	late := ringAware(0, 0)
	for i := range late.Nodes {
		late.Nodes[i].ClusterForwardsOut += seed.Runs[0].Nodes[i].ClusterForwardsOut
	}
	if !checkClusterSmoke([]report{seed, rep("late.json", late)}, 0) {
		t.Error("a ring-aware run with a seed-only pass's forwards should fail")
	}
	// Each shape only passes under its own mode.
	asSeed := ringAware(1, 0)
	asSeed.Mode = "cluster"
	if !checkClusterSmoke([]report{rep("", asSeed)}, 0) {
		t.Error("a ring-aware run's counters should fail the seed-only check")
	}
	asDirect := seedOnly()
	asDirect.Mode = "cluster-direct"
	if !checkClusterSmoke([]report{rep("", asDirect)}, 0) {
		t.Error("a seed-only run's counters should fail the ring-aware check")
	}
	// The floor applies to seed-only runs.
	if !checkClusterSmoke([]report{direct, seed}, 60_000) {
		t.Error("a seed-only run below the floor should fail")
	}
	if !checkClusterSmoke([]report{rep("", run{Mode: "stream", CheckIns: 1})}, 0) {
		t.Error("reports without a federation run should fail")
	}
}

func TestClusterFloor(t *testing.T) {
	single := rep("", run{Mode: "batched", CheckInsPerSec: 1}, run{Mode: "stream", CheckInsPerSec: 200_000})
	if got, want := clusterFloor(single), 200_000*clusterFloorFrac; got != want {
		t.Errorf("floor = %v, want %v", got, want)
	}
	if got := clusterFloor(rep("", run{Mode: "batched", CheckInsPerSec: 1})); got != 0 {
		t.Errorf("floor without a stream run = %v, want 0", got)
	}
}

func TestChaosRun(t *testing.T) {
	killed := func() run {
		return fedRun("cluster-direct",
			member("a", server.ClusterTelemetry{ClusterPeersDown: 1, ClusterLocalFallbacks: 40}),
			member("b", server.ClusterTelemetry{}))
	}
	lost := killed()
	lost.Errors = 2
	nothingDown := killed()
	nothingDown.Nodes[0].ClusterPeersDown = 0
	fwdErr := killed()
	fwdErr.Nodes[0].ClusterForwardErrors = 1
	idle := killed()
	idle.CheckIns = 0
	for _, tc := range []struct {
		name string
		r    run
		fail bool
	}{
		{"kill absorbed", killed(), false},
		{"client errors", lost, true},
		{"no peer down", nothingDown, true},
		{"forward error", fwdErr, true},
		{"no check-ins", idle, true},
	} {
		if got := checkChaosRun(tc.r, tc.name); got != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
	if checkChaosSmoke(rep("", killed())) {
		t.Error("a cluster-direct chaos run should be checked and pass")
	}
	if !checkChaosSmoke(rep("", run{Mode: "stream", CheckIns: 1})) {
		t.Error("a chaos report without a federation run should fail")
	}
}

func TestLive(t *testing.T) {
	withPlan := func(rate float64) report {
		return rep("", run{Mode: "batched", ServerMetrics: &server.Metrics{
			PlanRebuilds: 5, PlanPatches: 95, PlanIncrementalHitRate: rate}})
	}
	if checkLive(withPlan(minHitRate + 0.05)) {
		t.Error("a hit rate above the floor should pass")
	}
	if !checkLive(withPlan(minHitRate - 0.05)) {
		t.Error("a hit rate below the floor should fail")
	}
	if !checkLive(rep("", run{Mode: "batched"})) {
		t.Error("a run without server metrics should fail")
	}
	if !checkLive(rep("", run{Mode: "batched", ServerMetrics: &server.Metrics{}})) {
		t.Error("a run without plan telemetry should fail")
	}
}

func TestObsSmoke(t *testing.T) {
	sampled := func(every int, recorded int64) report {
		return rep("", run{Mode: "stream", ServerMetrics: &server.Metrics{
			ObsSampleEvery: every, FlightRecorded: recorded}})
	}
	if checkObsSmoke([]report{sampled(64, 100)}) {
		t.Error("sampling 1 in 64 with flight records should pass")
	}
	if !checkObsSmoke([]report{sampled(0, 100)}) {
		t.Error("obs_sample_every 0 should fail")
	}
	if !checkObsSmoke([]report{sampled(64, 0)}) {
		t.Error("no flight records should fail")
	}
	if checkObsSmoke([]report{sampled(0, 0), sampled(64, 3)}) {
		t.Error("one sampled report in the list should pass")
	}
}

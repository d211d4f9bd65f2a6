package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"venn/internal/core"
	"venn/internal/eval"
	"venn/internal/server"
	"venn/internal/sim"
	"venn/internal/stats"
	"venn/internal/trace"
	jobmix "venn/internal/workload"
)

// runOptions selects one workload run.
type runOptions struct {
	w      workload
	seed   int64
	sc     scale
	trace  bool   // also run the traced walk and the offline-engine probe, and write the span file
	outDir string // where the span file goes; empty writes none
}

// runResult is everything one run measured. EndToEnd always holds every
// end-to-end metric; PerLayer holds every per-layer metric on a traced run,
// and the ones that need no walk otherwise.
//
// It is also the form a child process hands its result to the parent in (the
// all-workloads and -repeat modes), as out/<workload>.result.json.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	// Reasons names every correctness check that failed; empty means correct.
	Reasons []string `json:"incorrect,omitempty"`
}

func (r *runResult) correct() bool { return len(r.Reasons) == 0 }

func (r *runResult) failf(format string, args ...any) {
	r.Reasons = append(r.Reasons, fmt.Sprintf(format, args...))
}

// serving is what phases 1 to 3 measured, over all of a run's rigs.
type serving struct {
	setups         []float64        // seconds per set-up
	segs           []segment        // capacity segments
	before, after  []server.Metrics // every daemon's counters around its capacity phase
	mallocs, bytes uint64           // Go runtime deltas over the capacity phases
	gcPauseNs      uint64
	gcCycles       uint32
	heapLive       uint64    // at the end of the last capacity phase
	p50s, p99s     []float64 // per paced segment, us
	late           []float64 // per paced frame, us
	maxOutstanding int64
	pacedCPU       time.Duration
	pacedWall      time.Duration
	pacedSpun      time.Duration
	clients        counts
	last           server.Metrics // the last rig's first daemon at the end, for its own spans
	in             *inputs
}

// serve runs phases 1 to 3 on one rig after another: each rig is a fresh
// set-up (fresh daemons, a freshly faulted-in registry) that is measured and
// then closed. A figure that is a median over segments is therefore also a
// median over set-ups, and one unlucky memory placement cannot move it.
func serve(res *runResult, w workload, seed int64, sc scale) (*serving, error) {
	sv := &serving{}
	for i := 0; i < sc.rigs; i++ {
		// Phase 1. The previous rig's memory went back to the system, so
		// every set-up pays for its pages and the peak resident set is that
		// of one rig.
		debug.FreeOSMemory()
		r, took, err := setUp(w, seed, sc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sv.setups = append(sv.setups, took.Seconds())
		sv.in = r.in
		r.fleetPass(w.demand) // untimed warm-up

		// Phase 2.
		var ms0, ms1 runtime.MemStats
		m0 := r.serverMetrics()
		runtime.ReadMemStats(&ms0)
		sv.segs = append(sv.segs, r.runCapacity(w.capFrames/sc.capFrameDiv))
		runtime.ReadMemStats(&ms1)
		m1 := r.serverMetrics()
		sv.before, sv.after = append(sv.before, m0...), append(sv.after, m1...)
		sv.mallocs += ms1.Mallocs - ms0.Mallocs
		sv.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		sv.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		sv.gcCycles += ms1.NumGC - ms0.NumGC
		sv.heapLive = ms1.HeapAlloc

		// Phase 3.
		paced, cpu := r.runPacedPhase(sc.pacedFrames, sc.pacedFPS)
		lat := micros(paced.latency)
		sv.p50s = append(sv.p50s, stats.Percentile(lat, 50))
		sv.p99s = append(sv.p99s, stats.Percentile(lat, 99))
		sv.late = append(sv.late, micros(paced.late)...)
		sv.maxOutstanding = max(sv.maxOutstanding, paced.maxOutstanding)
		sv.pacedCPU += cpu
		sv.pacedWall += paced.wall
		sv.pacedSpun += paced.spun

		// Correctness of this rig's serving phases.
		final := r.serverMetrics()
		sv.clients.add(r.clientCounts())
		for _, reason := range reconcile(r.clientCounts(), sumMetrics(final)) {
			res.failf("set-up %d: %s", i, reason)
		}
		checkWorkload(res, r, capacityMix(sumMetrics(m0), sumMetrics(m1)), final)
		sv.last = final[0]
		r.close()
	}
	return sv, nil
}

// runWorkload runs the four phases (and on a traced run the walk) of one
// workload in this process.
func runWorkload(opt runOptions) (*runResult, error) {
	w, sc := opt.w, opt.sc
	res := &runResult{Workload: w.name, Seed: opt.seed, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}

	sv, err := serve(res, w, opt.seed, sc)
	if err != nil {
		return nil, err
	}
	segs, total, in := sv.segs, sv.clients, sv.in
	res.Attempted, res.Failed = total.attempted, total.failed
	res.EndToEnd["setup_s"] = stats.Median(sv.setups)
	res.EndToEnd["checkins_per_core_s"] = medianOfSegments(segs, func(s segment) float64 {
		return float64(s.checkIns) / s.cpu.Seconds()
	})
	res.EndToEnd["paced_p50_us"] = stats.Median(sv.p50s)
	for k, v := range capacityMix(sumMetrics(sv.before), sumMetrics(sv.after)) {
		res.PerLayer[k] = v
	}
	var capWall, capCPU time.Duration
	var capCheckIns int64
	for _, s := range segs {
		capWall += s.wall
		capCPU += s.cpu
		capCheckIns += s.checkIns
	}
	res.PerLayer["run.wall_checkins_per_s"] = medianOfSegments(segs, func(s segment) float64 {
		return float64(s.checkIns) / s.wall.Seconds()
	})
	res.PerLayer["run.cpu_steal_frac"] = math.Max(0, float64(capWall-capCPU)/float64(capWall))
	res.PerLayer["runtime.allocs_per_checkin"] = float64(sv.mallocs) / float64(capCheckIns)
	res.PerLayer["runtime.alloc_bytes_per_checkin"] = float64(sv.bytes) / float64(capCheckIns)
	res.PerLayer["runtime.gc_cycles"] = float64(sv.gcCycles)
	res.PerLayer["runtime.gc_pause_total_ms"] = float64(sv.gcPauseNs) / 1e6
	res.PerLayer["runtime.heap_live_mb"] = float64(sv.heapLive) / (1 << 20)
	res.PerLayer["run.paced_p99_us"] = stats.Median(sv.p99s)
	res.PerLayer["run.paced_late_p99_us"] = stats.Percentile(sv.late, 99)
	res.PerLayer["run.paced_max_outstanding"] = float64(sv.maxOutstanding)
	// The sender's spin is the generator's cost, not the serving path's.
	res.PerLayer["run.paced_cpu_frac"] = math.Max(0, (sv.pacedCPU-sv.pacedSpun).Seconds()/sv.pacedWall.Seconds())
	obsMetrics(res.PerLayer, sv.last)

	// Phase 4: the same scripted replay under venn and under random, each
	// twice: the second run must reproduce the first exactly.
	replay := func(policy string) (replayResult, error) {
		first, err := runReplay(w, in, sc, policy)
		if err != nil {
			return first, err
		}
		again, err := runReplay(w, in, sc, policy)
		if err != nil {
			return first, err
		}
		res.Attempted += first.attempted
		res.Failed += first.failed
		if first.jobsDone != first.jobs {
			res.failf("replay (%s): %d of %d jobs finished", policy, first.jobsDone, first.jobs)
		}
		if first.assigned != first.reported {
			res.failf("replay (%s): %d assigned but %d reported", policy, first.assigned, first.reported)
		}
		if math.Float64bits(again.avgJCT) != math.Float64bits(first.avgJCT) {
			res.failf("replay (%s) is not deterministic: avg JCT %v then %v", policy, first.avgJCT, again.avgJCT)
		}
		return first, nil
	}
	venn, err := replay("venn")
	if err != nil {
		return nil, err
	}
	random, err := replay("random")
	if err != nil {
		return nil, err
	}
	res.EndToEnd["avg_jct_s"] = venn.avgJCT
	if venn.avgJCT > 0 {
		res.EndToEnd["jct_speedup_vs_random"] = random.avgJCT / venn.avgJCT
	}
	res.PerLayer["run.replay_checkins_per_s"] = float64(venn.checkIns) / venn.wall.Seconds()
	// Read before the traced walk, so that a traced run reports the same
	// peak as an untraced one: the high-water mark of the four phases.
	res.EndToEnd["rss_peak_mb"] = peakRSSMiB()

	if opt.trace {
		walk, err := runWalk(w, in, sc.walkFrames)
		if err != nil {
			return nil, err
		}
		for metric, spanName := range walkSpanOf {
			res.PerLayer[metric] = stats.Median(walk.perFrame[spanName])
		}
		res.PerLayer["server.manager.admit_cold_ns"] = walk.coldPerDevice
		res.PerLayer["run.span_overhead_ns"] = walk.spanOverheadNs
		predicted := predictedMicrosPerCheckIn(w, res.PerLayer, total)
		measured := 1e6 / res.EndToEnd["checkins_per_core_s"]
		res.PerLayer["model.predicted_cpu_us_per_checkin"] = predicted
		res.PerLayer["model.residual_frac"] = (measured - predicted) / measured
		if sc.simRun {
			eps, jct, err := simProbe()
			if err != nil {
				return nil, err
			}
			res.PerLayer["sim.events_per_s"], res.PerLayer["sim.avg_jct_s"] = eps, jct
		}
		if opt.outDir != "" {
			if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
				return nil, err
			}
			if err := writeSpans(filepath.Join(opt.outDir, w.name+".spans.jsonl"), walk.spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// sumMetrics adds the counters the bench reads across daemons: a rig's one or
// two, or those of all of a run's rigs.
func sumMetrics(ms []server.Metrics) server.Metrics {
	var t server.Metrics
	for _, m := range ms {
		t.CheckIns += m.CheckIns
		t.Assignments += m.Assignments
		t.Reports += m.Reports
		t.LockFreeCheckIns += m.LockFreeCheckIns
		t.CoreRounds += m.CoreRounds
		t.CoreCombinedOps += m.CoreCombinedOps
		t.CoreFastPathOps += m.CoreFastPathOps
		t.CoreWaitNs.P99 = math.Max(t.CoreWaitNs.P99, m.CoreWaitNs.P99)
		t.PlanRebuilds += m.PlanRebuilds
		t.PlanPatches += m.PlanPatches
		t.StreamFramesIn += m.StreamFramesIn
		t.StreamFramesOut += m.StreamFramesOut
		t.ClusterForwardsIn += m.ClusterForwardsIn
		t.ClusterForwardsOut += m.ClusterForwardsOut
		t.ClusterForwardErrors += m.ClusterForwardErrors
		t.ClusterLocalFallbacks += m.ClusterLocalFallbacks
		t.ForwardBytesIn += m.ForwardBytesIn
		t.ForwardBytesOut += m.ForwardBytesOut
	}
	return t
}

// capacityMix derives the path-mix metrics from the server counters before
// and after the capacity phase: ratios are measured where the work happens.
func capacityMix(a, b server.Metrics) map[string]float64 {
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	checkIns := b.CheckIns - a.CheckIns
	fast, combined := b.CoreFastPathOps-a.CoreFastPathOps, b.CoreCombinedOps-a.CoreCombinedOps
	// A forwarded v2 item is itemBytes long and every hop frame adds a
	// one-byte count (a relay flush never carries 128 items here), so the
	// byte counter gives the share of check-ins that crossed the relay.
	itemBytes := int64(len(mustBinary(server.CheckIn{DeviceID: "dev-000000"})))
	fwdBytes, fwdFrames := b.ForwardBytesOut-a.ForwardBytesOut, b.ClusterForwardsOut-a.ClusterForwardsOut
	return map[string]float64{
		"server.manager.lockfree_frac":      ratio(b.LockFreeCheckIns-a.LockFreeCheckIns, checkIns),
		"server.manager.assigned_frac":      ratio(b.Assignments-a.Assignments, checkIns),
		"server.combiner.ops_per_round":     ratio(combined, b.CoreRounds-a.CoreRounds),
		"server.combiner.fastpath_frac":     ratio(fast, fast+combined),
		"server.combiner.wait_p99_ns":       b.CoreWaitNs.P99,
		"core.plan_rebuilds":                float64(b.PlanRebuilds - a.PlanRebuilds),
		"core.plan_patches":                 float64(b.PlanPatches - a.PlanPatches),
		"transport.frames_in":               float64(b.StreamFramesIn - a.StreamFramesIn),
		"transport.frames_out":              float64(b.StreamFramesOut - a.StreamFramesOut),
		"cluster.forward_frac":              ratio(fwdBytes-fwdFrames, itemBytes*checkIns),
		"cluster.forward_bytes_per_checkin": ratio(fwdBytes, checkIns),
		"cluster.forward_errors":            float64(b.ClusterForwardErrors - a.ClusterForwardErrors),
		"cluster.local_fallbacks":           float64(b.ClusterLocalFallbacks - a.ClusterLocalFallbacks),
	}
}

func mustBinary(ci server.CheckIn) []byte {
	b, err := ci.AppendBinary(nil)
	if err != nil {
		panic(err) // the codec cannot fail on a valid check-in
	}
	return b
}

// reconcile compares what the clients saw with what the daemons counted,
// both since set-up, and names every disagreement.
func reconcile(c counts, s server.Metrics) []string {
	var reasons []string
	if c.checkIns != s.CheckIns {
		reasons = append(reasons, fmt.Sprintf("clients saw %d check-ins answered, daemons admitted %d", c.checkIns, s.CheckIns))
	}
	if c.assigned != s.Assignments {
		reasons = append(reasons, fmt.Sprintf("clients saw %d assignments, daemons made %d", c.assigned, s.Assignments))
	}
	if c.assigned != c.reported {
		reasons = append(reasons, fmt.Sprintf("%d devices assigned but %d reports acknowledged", c.assigned, c.reported))
	}
	if c.failed != 0 {
		reasons = append(reasons, fmt.Sprintf("%d of %d operations failed", c.failed, c.attempted))
	}
	return reasons
}

// checkWorkload applies the checks that prove the workload stressed the
// layers it exists for.
func checkWorkload(res *runResult, r *rig, mix map[string]float64, final []server.Metrics) {
	if r.w.demand {
		if f := mix["server.manager.assigned_frac"]; math.Abs(f-demandFrac) > 0.02 {
			res.failf("assigned fraction %.4f is outside %.2f±0.02", f, demandFrac)
		}
	} else if f := mix["server.manager.lockfree_frac"]; f < 0.99 {
		res.failf("lock-free fraction %.4f is below 0.99 on surplus traffic", f)
	}
	for _, n := range r.nodes {
		for _, st := range n.m.Jobs() {
			if st.Assigned > st.DemandPerRound {
				res.failf("job %s over-served: %d assigned for a demand of %d", st.Name, st.Assigned, st.DemandPerRound)
			}
		}
	}
	if r.w.federated {
		ms, total := final, sumMetrics(final)
		if ms[0].ClusterForwardsOut != ms[1].ClusterForwardsIn || ms[1].ClusterForwardsOut != ms[0].ClusterForwardsIn {
			res.failf("forwards do not pair up: node 0 out %d/in %d, node 1 out %d/in %d",
				ms[0].ClusterForwardsOut, ms[0].ClusterForwardsIn, ms[1].ClusterForwardsOut, ms[1].ClusterForwardsIn)
		}
		if total.ClusterForwardsOut == 0 {
			res.failf("no check-in crossed the relay")
		}
		if total.ClusterForwardErrors != 0 || total.ClusterLocalFallbacks != 0 {
			res.failf("%d forward errors, %d local fallbacks", total.ClusterForwardErrors, total.ClusterLocalFallbacks)
		}
	}
}

// obsMetrics reads the daemon's own sampled spans of the check-in-batch op.
func obsMetrics(out map[string]float64, m server.Metrics) {
	stages := m.RequestStageNs[server.RouteCheckInBatch]
	for _, st := range []string{"read", "decode", "queue_wait", "apply", "hop", "encode", "write"} {
		out["obs.stage."+st+"_ns"] = stages[st].P50
	}
	out["obs.handler_p50_ns"] = m.HandlerLatencyMs[server.RouteCheckInBatch].P50 * 1e6
}

// predictedMicrosPerCheckIn sums the walk's per-frame self times along the
// workload's serving path, weighted by the path mix the clients measured
// (report frames and job registrations per check-in frame), into the CPU
// cost the layers account for, per check-in.
func predictedMicrosPerCheckIn(w workload, m map[string]float64, c counts) float64 {
	frames := float64(c.frames)
	reportsPerFrame := float64(c.reportFrames) / frames
	jobsPerFrame := float64(c.jobs) / frames
	framing := m["transport.write_frame_ns"] + m["transport.read_frame_ns"] // both directions
	var ns float64
	switch {
	case w.transport == "http":
		// The handler span covers body read, JSON decode, service, JSON
		// encode and the response write; the client's codec work is added.
		ns = m["server.codec.json_encode_req_ns"] + m["server.http.handler_ns"] + m["server.codec.json_decode_resp_ns"]
	case w.federated:
		// The cluster span covers the ring lookups, the local share's
		// service call and the peer hop, the owner's work included.
		ns = m["server.bincodec.encode_req_ns"] + m["server.bincodec.decode_req_ns"] +
			m["cluster.checkin_batch_raw_ns"] +
			m["server.bincodec.encode_resp_ns"] + m["server.bincodec.decode_resp_ns"] + framing
	default:
		ns = m["server.bincodec.encode_req_ns"] + m["server.bincodec.decode_req_ns"] +
			m["server.service.checkin_batch_ns"] +
			m["server.bincodec.encode_resp_ns"] + m["server.bincodec.decode_resp_ns"] + framing
	}
	ns += reportsPerFrame*(m["server.service.report_batch_ns"]+framing) + jobsPerFrame*m["server.manager.register_job_ns"]
	return ns / batch / 1e3
}

// simProbe runs the offline engine once on the default evaluation setup
// under Venn: the simulator shares the scheduler core with the daemon, so
// its throughput and JCT move with core changes too.
func simProbe() (eventsPerSec, avgJCT float64, err error) {
	setup := eval.NewSetup(eval.ScaleDefault, 1)
	fleet := trace.GenerateFleet(setup.Fleet)
	wl := jobmix.Generate(setup.Jobs)
	t0 := time.Now()
	out, err := eval.RunOne(fleet, wl, func() sim.Scheduler { return core.NewDefault() }, setup.Seed+100, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("sim probe: %w", err)
	}
	events := out.CheckIns + out.Assignments + out.Responses + out.Failures
	return float64(events) / time.Since(t0).Seconds(), out.AvgJCT.Seconds(), nil
}

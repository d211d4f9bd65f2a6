package main

// metricDef declares one metric. BENCHMARK.json repeats this table for the
// benchmark driver (TestBenchmarkJSONMatches keeps the two from drifting);
// this package reads only this one.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the worsening that counts as a regression, as a share
}

// endToEnd are the metrics a user of the system would see; every one is
// reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"checkins_per_core_s", "1/s", "higher", 0.25},
	{"paced_p50_us", "us", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.15},
	{"avg_jct_s", "sim_s", "lower", 0.03},
	{"jct_speedup_vs_random", "x", "higher", 0.01},
}

// exactOnSeed are the end-to-end metrics that are a function of the seed
// alone: their bounds above are for comparing runs on different seeds, as the
// benchmark driver does, and on one seed any difference at all is a failure.
var exactOnSeed = map[string]bool{"avg_jct_s": true, "jct_speedup_vs_random": true}

// perLayer are the metrics of single layers; they carry no bound. The *_ns
// walk metrics are nanoseconds per 64-check-in frame.
var perLayer = []metricDef{
	// The traced walk: median self time per frame of each layer call.
	{"server.bincodec.encode_req_ns", "ns", "lower", 0},
	{"server.bincodec.decode_req_ns", "ns", "lower", 0},
	{"server.bincodec.encode_resp_ns", "ns", "lower", 0},
	{"server.bincodec.decode_resp_ns", "ns", "lower", 0},
	{"server.codec.json_encode_req_ns", "ns", "lower", 0},
	{"server.codec.json_decode_req_ns", "ns", "lower", 0},
	{"server.codec.json_encode_resp_ns", "ns", "lower", 0},
	{"server.codec.json_decode_resp_ns", "ns", "lower", 0},
	{"transport.write_frame_ns", "ns", "lower", 0},
	{"transport.read_frame_ns", "ns", "lower", 0},
	{"server.service.checkin_batch_ns", "ns", "lower", 0},
	{"server.service.report_batch_ns", "ns", "lower", 0},
	{"server.manager.register_job_ns", "ns", "lower", 0},
	{"server.manager.admit_cold_ns", "ns", "lower", 0},
	{"server.http.handler_ns", "ns", "lower", 0},
	{"core.assign_ns", "ns", "lower", 0},
	{"core.plan_rebuild_ns", "ns", "lower", 0},
	{"core.snapshot_probe_ns", "ns", "lower", 0},
	{"hashring.owner_ns", "ns", "lower", 0},
	{"cluster.checkin_batch_raw_ns", "ns", "lower", 0},
	// The path mix, from Manager.MetricsSnapshot deltas over the capacity phase.
	{"server.manager.lockfree_frac", "frac", "higher", 0},
	{"server.manager.assigned_frac", "frac", "higher", 0},
	{"server.combiner.ops_per_round", "count", "higher", 0},
	{"server.combiner.fastpath_frac", "frac", "higher", 0},
	{"server.combiner.wait_p99_ns", "ns", "lower", 0},
	{"core.plan_rebuilds", "count", "lower", 0},
	{"core.plan_patches", "count", "lower", 0},
	{"transport.frames_in", "count", "lower", 0},
	{"transport.frames_out", "count", "lower", 0},
	{"cluster.forward_frac", "frac", "lower", 0},
	{"cluster.forward_bytes_per_checkin", "B", "lower", 0},
	{"cluster.forward_errors", "count", "lower", 0},
	{"cluster.local_fallbacks", "count", "lower", 0},
	// The daemon's own 1-in-64 spans: check-in-batch op, p50 per stage.
	{"obs.stage.read_ns", "ns", "lower", 0},
	{"obs.stage.decode_ns", "ns", "lower", 0},
	{"obs.stage.queue_wait_ns", "ns", "lower", 0},
	{"obs.stage.apply_ns", "ns", "lower", 0},
	{"obs.stage.hop_ns", "ns", "lower", 0},
	{"obs.stage.encode_ns", "ns", "lower", 0},
	{"obs.stage.write_ns", "ns", "lower", 0},
	{"obs.handler_p50_ns", "ns", "lower", 0},
	// The Go runtime over the capacity phase.
	{"runtime.allocs_per_checkin", "count", "lower", 0},
	{"runtime.alloc_bytes_per_checkin", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"runtime.heap_live_mb", "MiB", "lower", 0},
	// The run itself.
	{"run.wall_checkins_per_s", "1/s", "higher", 0},
	{"run.cpu_steal_frac", "frac", "lower", 0},
	{"run.paced_p99_us", "us", "lower", 0},
	{"run.paced_late_p99_us", "us", "lower", 0},
	{"run.paced_max_outstanding", "count", "lower", 0},
	{"run.paced_cpu_frac", "frac", "lower", 0},
	{"run.replay_checkins_per_s", "1/s", "higher", 0},
	{"run.span_overhead_ns", "ns", "lower", 0},
	// The offline engine.
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.avg_jct_s", "sim_s", "lower", 0},
	// The cost model.
	{"model.predicted_cpu_us_per_checkin", "us", "lower", 0},
	{"model.residual_frac", "frac", "lower", 0},
}

// walkSpanOf maps the walk's *_ns metrics to the span whose per-frame self
// time they report.
var walkSpanOf = map[string]string{
	"server.bincodec.encode_req_ns":    spanEncodeReq,
	"server.bincodec.decode_req_ns":    spanDecodeReq,
	"server.bincodec.encode_resp_ns":   spanEncodeResp,
	"server.bincodec.decode_resp_ns":   spanDecodeResp,
	"server.codec.json_encode_req_ns":  spanJSONEncReq,
	"server.codec.json_decode_req_ns":  spanJSONDecReq,
	"server.codec.json_encode_resp_ns": spanJSONEncResp,
	"server.codec.json_decode_resp_ns": spanJSONDecResp,
	"transport.write_frame_ns":         spanWriteFrame,
	"transport.read_frame_ns":          spanReadFrame,
	"server.service.checkin_batch_ns":  spanCheckIn,
	"server.service.report_batch_ns":   spanReport,
	"server.manager.register_job_ns":   spanRegister,
	"server.http.handler_ns":           spanHandler,
	"core.assign_ns":                   spanAssign,
	"core.plan_rebuild_ns":             spanRebuild,
	"core.snapshot_probe_ns":           spanProbe,
	"hashring.owner_ns":                spanOwner,
	"cluster.checkin_batch_raw_ns":     spanClusterRaw,
}

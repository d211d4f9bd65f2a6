package server

import (
	"strings"

	"venn/internal/obs"
)

// Prometheus text-format view of the daemon's telemetry (GET /metrics). It
// exposes the same counters and histograms as the JSON /v1/metrics payload,
// renamed into Prometheus conventions: cumulative counters keep their
// _total suffix, durations are histograms in seconds, and the windowed
// */s rates are omitted — Prometheus derives rates from the counters. The
// output passes obs.ValidateExposition (and promtool), which CI checks.

// WritePrometheus renders the full exposition into b.
func WritePrometheus(b *strings.Builder, m *Manager) {
	mt := m.MetricsSnapshot()
	h := m.Health()

	gauge := func(name, help string, v float64) {
		obs.PromFamily(b, name, help, "gauge")
		obs.PromSample(b, name, "", v)
	}
	counter := func(name, help string, v int64) {
		obs.PromFamily(b, name, help, "counter")
		obs.PromSample(b, name, "", float64(v))
	}

	healthy := 0.0
	if h.OK {
		healthy = 1
	}
	gauge("venn_healthy", "Whether the daemon reports healthy (see /v1/healthz).", healthy)
	gauge("venn_uptime_seconds", "Seconds since the daemon started.", mt.UptimeSeconds)
	gauge("venn_obs_sample_every", "Active span sampling rate (0 = spans off).", float64(mt.ObsSampleEvery))

	counter("venn_checkins_total", "Admitted device check-ins.", mt.CheckIns)
	counter("venn_assignments_total", "Task assignments handed out.", mt.Assignments)
	counter("venn_reports_total", "Task reports accepted.", mt.Reports)
	counter("venn_lock_free_checkins_total", "Check-ins answered from a plan snapshot without the scheduler lock.", mt.LockFreeCheckIns)
	counter("venn_devices_evicted_total", "Device registry entries dropped by TTL sweeps.", mt.DevicesEvicted)
	counter("venn_plan_rebuilds_total", "Full scheduling-plan rebuilds.", mt.PlanRebuilds)
	counter("venn_plan_patches_total", "Incremental scheduling-plan patches.", mt.PlanPatches)
	counter("venn_flight_recorded_total", "Requests retained by the flight recorder since start.", mt.FlightRecorded)

	counter("venn_core_rounds_total", "Flat-combining rounds applied by the core commit pipeline.", mt.CoreRounds)
	counter("venn_core_combined_ops_total", "Queued core ops applied by combining rounds.", mt.CoreCombinedOps)
	counter("venn_core_fastpath_ops_total", "Core ops applied on the uncontended fast path.", mt.CoreFastPathOps)

	gauge("venn_known_devices", "Devices currently in the registry.", float64(mt.KnownDevices))
	gauge("venn_busy_devices", "Devices currently holding a task.", float64(mt.BusyDevices))
	gauge("venn_registry_slots", "Device registry table slots, all shards.", float64(mt.RegistrySlots))
	gauge("venn_registry_live", "Device registry slots holding a device.", float64(mt.RegistryLive))
	gauge("venn_registry_tombstones", "Device registry slots holding an evicted device's tombstone.", float64(mt.RegistryTombstones))
	gauge("venn_registry_id_bytes", "Bytes in the device registry's ID arenas, evicted IDs not yet compacted included.", float64(mt.RegistryIDBytes))
	counter("venn_registry_rehashes_total", "Device registry table rebuilds (growth, tombstone purge, arena compaction).", mt.RegistryRehashes)
	obs.PromFamily(b, "venn_jobs", "Jobs by lifecycle state.", "gauge")
	obs.PromSample(b, "venn_jobs", `state="active"`, float64(mt.ActiveJobs))
	obs.PromSample(b, "venn_jobs", `state="scheduling"`, float64(mt.SchedulingJobs))
	obs.PromSample(b, "venn_jobs", `state="collecting"`, float64(mt.CollectingJobs))

	gauge("venn_stream_conns", "Open stream-transport connections.", float64(mt.StreamConns))
	counter("venn_stream_frames_in_total", "Stream request frames received.", mt.StreamFramesIn)
	counter("venn_stream_frames_out_total", "Stream response frames written.", mt.StreamFramesOut)

	if mt.ClusterNodeID != "" {
		obs.PromFamily(b, "venn_cluster_peers", "Federation peers by state.", "gauge")
		obs.PromSample(b, "venn_cluster_peers", `state="up"`, float64(mt.ClusterPeersUp))
		obs.PromSample(b, "venn_cluster_peers", `state="down"`, float64(mt.ClusterPeersDown))
		counter("venn_cluster_forwards_in_total", "Peer-forwarded request frames served.", mt.ClusterForwardsIn)
		counter("venn_cluster_forwards_out_total", "Request frames forwarded to owning peers.", mt.ClusterForwardsOut)
		counter("venn_cluster_forward_errors_total", "Federation forwards that failed.", mt.ClusterForwardErrors)
		counter("venn_cluster_local_fallbacks_total", "Would-be forwards applied locally instead.", mt.ClusterLocalFallbacks)
		counter("venn_forward_bytes_in_total", "Bytes of hop request frames received.", mt.ForwardBytesIn)
		counter("venn_forward_bytes_out_total", "Bytes relayed out over the zero-copy forward path.", mt.ForwardBytesOut)
	}

	// End-to-end handler latency, always-on, per op — every transport feeds
	// these histograms.
	obs.PromFamily(b, "venn_request_duration_seconds", "End-to-end request latency by op.", "histogram")
	for op := obs.Op(0); op < obs.NumOps; op++ {
		s := m.obs.TotalSnapshot(op)
		if s.Count() == 0 {
			continue
		}
		obs.PromHist(b, "venn_request_duration_seconds", `op="`+op.String()+`"`, s)
	}

	// Sampled per-stage breakdown (1 in ObsSampleEvery requests).
	obs.PromFamily(b, "venn_request_stage_duration_seconds", "Sampled request latency by op and stage.", "histogram")
	for op := obs.Op(0); op < obs.NumOps; op++ {
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			s := m.obs.StageSnapshot(op, st)
			if s.Count() == 0 {
				continue
			}
			obs.PromHist(b, "venn_request_stage_duration_seconds", `op="`+op.String()+`",stage="`+st.String()+`"`, s)
		}
	}
}

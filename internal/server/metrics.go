package server

import (
	"sync/atomic"

	"venn/internal/job"
	"venn/internal/obs"
)

// Metrics is the GET /v1/metrics payload: serving throughput, queue depths,
// and handler latency percentiles. Rates are averaged over the trailing
// rateWindowSeconds full seconds, or over the daemon's whole life while that
// is shorter; latency percentiles are estimated from the cumulative obs
// histograms.
type Metrics struct {
	UptimeSeconds     float64 `json:"uptime_seconds"`
	Shards            int     `json:"shards"`
	CheckIns          int64   `json:"checkins_total"`
	Assignments       int64   `json:"assignments_total"`
	Reports           int64   `json:"reports_total"`
	CheckInsPerSec    float64 `json:"checkins_per_sec"`
	AssignmentsPerSec float64 `json:"assignments_per_sec"`
	ReportsPerSec     float64 `json:"reports_per_sec"`

	ActiveJobs     int   `json:"active_jobs"`
	SchedulingJobs int   `json:"scheduling_jobs"` // queue depth: jobs with an open request
	CollectingJobs int   `json:"collecting_jobs"`
	KnownDevices   int64 `json:"known_devices"`
	BusyDevices    int64 `json:"busy_devices"`

	// Scheduling-policy telemetry. PolicyPrimary names the policy serving
	// assignments; PolicyShadows carries each shadow policy's divergence
	// counters (assignment mismatches, queue-depth delta, drop/panic
	// health), keyed by registry name. Absent when no shadows run.
	PolicyPrimary string                       `json:"policy_primary"`
	PolicyShadows map[string]PolicyShadowStats `json:"policy_shadows,omitempty"`

	// Plan-lifecycle telemetry: full Algorithm-1 rebuilds vs incremental
	// patches, and the fraction of refreshes the incremental path served.
	PlanRebuilds           int64   `json:"plan_rebuilds"`
	PlanPatches            int64   `json:"plan_patches"`
	PlanIncrementalHitRate float64 `json:"plan_incremental_hit_rate"`
	// LockFreeCheckIns counts check-ins answered from a plan snapshot
	// without entering the scheduler lock.
	LockFreeCheckIns int64 `json:"lock_free_checkins_total"`
	// DevicesEvicted counts registry entries dropped by TTL sweeps.
	DevicesEvicted int64 `json:"devices_evicted_total"`
	// The device registry's shape (registry.go), summed over its shards:
	// table slots, slots holding a device (= KnownDevices) or a tombstone —
	// (live+tombstones)/slots is the load factor — the ID arenas' bytes, IDs
	// of evicted devices not yet compacted away included, and table rebuilds.
	RegistrySlots      int64 `json:"registry_slots"`
	RegistryLive       int64 `json:"registry_live"`
	RegistryTombstones int64 `json:"registry_tombstones"`
	RegistryIDBytes    int64 `json:"registry_id_bytes"`
	RegistryRehashes   int64 `json:"registry_rehashes_total"`

	// Core commit pipeline telemetry (combiner.go). CoreRounds counts
	// combining rounds applied; CoreCombinedOps counts the queued ops they
	// carried (CoreOpsPerRound is their ratio — the amortization factor);
	// CoreFastPathOps counts ops applied directly on the uncontended fast
	// path, no queue hop. CoreWaitNs gives the wait-time percentiles, in
	// nanoseconds, of submitters that parked while a combiner worked.
	CoreRounds      int64          `json:"core_rounds"`
	CoreCombinedOps int64          `json:"core_combined_ops"`
	CoreOpsPerRound float64        `json:"core_ops_per_round"`
	CoreFastPathOps int64          `json:"core_fastpath_ops"`
	CoreWaitNs      LatencySummary `json:"core_wait_ns"`

	// CheckInsPerSecByTransport splits the served check-in rate by the
	// transport that carried it ("http", "stream"); transports with no
	// traffic in the window are omitted. "Served" counts items not rejected
	// per-item, so it can slightly exceed the admitted checkins_per_sec
	// (daily-budget refusals are served but not admitted).
	CheckInsPerSecByTransport map[string]float64 `json:"checkins_per_sec_by_transport,omitempty"`
	// Streaming-transport telemetry; all zero when no stream listener is
	// attached (SetStreamTelemetry).
	StreamConns     int64 `json:"stream_conns"`
	StreamFramesIn  int64 `json:"stream_frames_in_total"`
	StreamFramesOut int64 `json:"stream_frames_out_total"`

	// Federation telemetry; all absent when no cluster layer is attached
	// (SetClusterTelemetrySource). ForwardsIn counts peer-forwarded request
	// frames this node served; ForwardsOut counts request frames this node
	// forwarded to owning peers; LocalFallbacks counts would-be forwards
	// applied locally instead (owner down, drain, or a forward that
	// provably never left this node) — the degraded mode that trades
	// ownership locality for availability. Forwards that fail ambiguously
	// (timeout mid-flight) are never re-applied locally; they surface to
	// the caller as unavailable and count only in ForwardErrors.
	ClusterNodeID         string            `json:"cluster_node_id,omitempty"`
	ClusterRingSize       int               `json:"cluster_ring_size,omitempty"`
	ClusterVNodes         int               `json:"cluster_vnodes,omitempty"`
	ClusterPeersUp        int               `json:"cluster_peers_up,omitempty"`
	ClusterPeersDown      int               `json:"cluster_peers_down,omitempty"`
	ClusterPeerStates     map[string]string `json:"cluster_peer_states,omitempty"`
	ClusterForwardsIn     int64             `json:"cluster_forwards_in,omitempty"`
	ClusterForwardsOut    int64             `json:"cluster_forwards_out,omitempty"`
	ClusterForwardErrors  int64             `json:"cluster_forward_errors,omitempty"`
	ClusterLocalFallbacks int64             `json:"cluster_local_fallbacks,omitempty"`
	// Direct-routing observability: DirectRoutedBatches counts ingress
	// batches that needed no peer hop at all (a ring-aware client landed
	// every item on its owner), TopologyEpoch/TopologyPushes track the
	// topology the daemon advertises over OpTopology, and the byte pair
	// makes the direct-vs-forwarded traffic ratio observable (bytes_out
	// counts the v2 zero-copy relay path; bytes_in counts every hop frame
	// received, any version).
	DirectRoutedBatches int64  `json:"direct_routed_batches,omitempty"`
	TopologyEpoch       uint64 `json:"topology_epoch,omitempty"`
	TopologyPushes      int64  `json:"topology_pushes,omitempty"`
	ForwardBytesIn      int64  `json:"forward_bytes_in,omitempty"`
	ForwardBytesOut     int64  `json:"forward_bytes_out,omitempty"`

	// HandlerLatencyMs gives per-op end-to-end handler latency percentiles
	// in milliseconds, derived from the always-on obs total histograms
	// (every transport feeds them); ops with no traffic are omitted. The
	// percentile resolution is the histograms' power-of-two bucketing (2x).
	HandlerLatencyMs map[string]LatencySummary `json:"handler_latency_ms"`

	// RequestStageNs breaks sampled request time down per op and stage
	// ("read", "decode", "queue_wait", "apply", "hop", "encode", "write"),
	// in nanoseconds. Populated from 1-in-ObsSampleEvery sampled spans;
	// empty stages are omitted, and the whole map is absent with sampling
	// disabled.
	RequestStageNs map[string]map[string]LatencySummary `json:"request_stage_ns,omitempty"`
	// ObsSampleEvery is the active span sampling rate (0 = spans off).
	ObsSampleEvery int `json:"obs_sample_every"`
	// FlightRecorded counts requests retained by the flight recorder since
	// start (the ring keeps the slowest obs.FlightSize of them; see
	// /v1/debug/flight).
	FlightRecorded int64 `json:"flight_recorded_total"`
}

// LatencySummary condenses one latency histogram: Count is cumulative, and
// the percentiles are estimated from the histogram's buckets (see
// histSummary).
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

const (
	// rateRingSeconds is the per-second bucket ring size; it must exceed
	// rateWindowSeconds so a full window of closed seconds is available.
	rateRingSeconds = 32
	// rateWindowSeconds is the averaging window for the */s rates.
	rateWindowSeconds = 10
)

// rateCounter counts events into per-second buckets with atomics only, so
// the serving paths can record throughput without sharing a lock. A bucket
// is reused once its second falls out of the ring; the CAS hand-off may
// drop a handful of events on the reuse boundary, which is acceptable for
// monitoring.
type rateCounter struct {
	buckets [rateRingSeconds]rateBucket
}

type rateBucket struct {
	sec atomic.Int64
	n   atomic.Int64
}

// Add records n events at the given wall-clock second.
func (rc *rateCounter) Add(nowSec int64, n int64) {
	if n <= 0 {
		return
	}
	b := &rc.buckets[nowSec%rateRingSeconds]
	if s := b.sec.Load(); s != nowSec {
		if b.sec.CompareAndSwap(s, nowSec) {
			b.n.Store(0)
		}
	}
	b.n.Add(n)
}

// PerSec averages the trailing window of elapsed seconds (the current,
// still-filling second is excluded). The window is rateWindowSeconds, or the
// seconds elapsed since startSec while those are fewer, so a young daemon's
// rate is not diluted by seconds it did not live through.
func (rc *rateCounter) PerSec(nowSec, startSec int64) float64 {
	window := min(rateWindowSeconds, nowSec-startSec)
	if window <= 0 {
		return 0
	}
	var sum int64
	for s := nowSec - window; s < nowSec; s++ {
		b := &rc.buckets[s%rateRingSeconds]
		if b.sec.Load() == s {
			sum += b.n.Load()
		}
	}
	return float64(sum) / float64(window)
}

// Route labels for the per-op latency maps of /v1/metrics. They are the
// string forms of the obs.Op enum — the JSON view, the Prometheus view, and
// the per-stage breakdowns all share one vocabulary.
const (
	RouteCheckIn      = "checkin"
	RouteCheckInBatch = "checkin_batch"
	RouteReport       = "report"
	RouteReportBatch  = "report_batch"
	RouteJobs         = "jobs"
	RouteOther        = "other"
)

// metricsRecorder aggregates the serving-path rate telemetry behind
// /v1/metrics. Latency lives in the manager's obs registry, not here.
type metricsRecorder struct {
	checkins   rateCounter
	assignRate rateCounter
	reportRate rateCounter
	// perTransport counts served check-ins by transport label; written once
	// at construction and then only read, so lookups need no lock.
	perTransport map[string]*rateCounter
}

func newMetricsRecorder() *metricsRecorder {
	r := &metricsRecorder{
		perTransport: make(map[string]*rateCounter, len(transportLabels)),
	}
	for _, tr := range transportLabels {
		r.perTransport[tr] = &rateCounter{}
	}
	return r
}

// transportRate returns the served-check-in counter for a transport label,
// defaulting unknown labels to the HTTP bucket.
func (r *metricsRecorder) transportRate(transport string) *rateCounter {
	if rc, ok := r.perTransport[transport]; ok {
		return rc
	}
	return r.perTransport[TransportHTTP]
}

// histSummary condenses an obs histogram snapshot into the LatencySummary
// shape; scale divides the nanosecond estimates (1 keeps ns, 1e6 yields ms).
func histSummary(s obs.HistSnapshot, scale float64) LatencySummary {
	return LatencySummary{
		Count: s.Count(),
		P50:   s.Quantile(0.50) / scale,
		P90:   s.Quantile(0.90) / scale,
		P99:   s.Quantile(0.99) / scale,
		Max:   s.MaxNs() / scale,
	}
}

// MetricsSnapshot assembles the /v1/metrics payload.
func (m *Manager) MetricsSnapshot() Metrics {
	sec, startSec := m.nowSec(), m.start.Unix()
	reg := m.reg.stats()
	out := Metrics{
		Shards:            len(m.reg.shards),
		CheckInsPerSec:    m.metrics.checkins.PerSec(sec, startSec),
		AssignmentsPerSec: m.metrics.assignRate.PerSec(sec, startSec),
		ReportsPerSec:     m.metrics.reportRate.PerSec(sec, startSec),
		KnownDevices:      reg.Live,
		BusyDevices:       m.reg.busy.Load(),
		CheckIns:          m.checkIns.Load(),
		LockFreeCheckIns:  m.lockFreeCheckIns.Load(),
		DevicesEvicted:    m.reg.evictions.Load(),
		HandlerLatencyMs:  make(map[string]LatencySummary, int(obs.NumOps)),
		ObsSampleEvery:    m.obs.SampleEvery(),
		FlightRecorded:    m.obs.Flight().Recorded(),
	}
	out.RegistrySlots, out.RegistryLive, out.RegistryTombstones = reg.Slots, reg.Live, reg.Tombstones
	out.RegistryIDBytes, out.RegistryRehashes = reg.IDBytes, reg.Rehashes
	out.CoreRounds = m.coreRounds.Load()
	out.CoreCombinedOps = m.coreCombinedOps.Load()
	if out.CoreRounds > 0 {
		out.CoreOpsPerRound = float64(out.CoreCombinedOps) / float64(out.CoreRounds)
	}
	out.CoreFastPathOps = m.coreFastOps.Load()
	out.CoreWaitNs = histSummary(m.coreWait.Snapshot(), 1)
	for op := obs.Op(0); op < obs.NumOps; op++ {
		if s := m.obs.TotalSnapshot(op); s.Count() > 0 {
			out.HandlerLatencyMs[op.String()] = histSummary(s, 1e6)
		}
		var stages map[string]LatencySummary
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if s := m.obs.StageSnapshot(op, st); s.Count() > 0 {
				if stages == nil {
					stages = make(map[string]LatencySummary, int(obs.NumStages))
				}
				stages[st.String()] = histSummary(s, 1)
			}
		}
		if stages != nil {
			if out.RequestStageNs == nil {
				out.RequestStageNs = make(map[string]map[string]LatencySummary, int(obs.NumOps))
			}
			out.RequestStageNs[op.String()] = stages
		}
	}
	for _, tr := range transportLabels {
		if rate := m.metrics.perTransport[tr].PerSec(sec, startSec); rate > 0 {
			if out.CheckInsPerSecByTransport == nil {
				out.CheckInsPerSecByTransport = make(map[string]float64, len(transportLabels))
			}
			out.CheckInsPerSecByTransport[tr] = rate
		}
	}
	m.mu.Lock()
	if m.streamSource != nil {
		st := m.streamSource.StreamTelemetry()
		out.StreamConns = st.Conns
		out.StreamFramesIn = st.FramesIn
		out.StreamFramesOut = st.FramesOut
	}
	if m.clusterSource != nil {
		ct := m.clusterSource.ClusterTelemetry()
		out.ClusterNodeID = ct.NodeID
		out.ClusterRingSize = ct.RingSize
		out.ClusterVNodes = ct.VNodes
		out.ClusterPeerStates = ct.PeerStates
		for _, st := range ct.PeerStates {
			if st == "up" {
				out.ClusterPeersUp++
			} else {
				out.ClusterPeersDown++
			}
		}
		out.ClusterForwardsIn = ct.ForwardsIn
		out.ClusterForwardsOut = ct.ForwardsOut
		out.ClusterForwardErrors = ct.ForwardErrors
		out.ClusterLocalFallbacks = ct.LocalFallbacks
		out.DirectRoutedBatches = ct.DirectRoutedBatches
		out.TopologyEpoch = ct.TopologyEpoch
		out.TopologyPushes = ct.TopologyPushes
		out.ForwardBytesIn = ct.ForwardBytesIn
		out.ForwardBytesOut = ct.ForwardBytesOut
	}
	out.UptimeSeconds = float64(m.now()) / 1000
	out.Assignments = int64(m.assignments)
	out.Reports = int64(m.reports)
	if m.venn != nil {
		out.PlanRebuilds = int64(m.venn.PlanRebuilds)
		out.PlanPatches = int64(m.venn.PlanPatches)
		if total := out.PlanRebuilds + out.PlanPatches; total > 0 {
			out.PlanIncrementalHitRate = float64(out.PlanPatches) / float64(total)
		}
	}
	out.ActiveJobs = len(m.jobs)
	for _, mj := range m.jobs {
		switch mj.j.State() {
		case job.StateScheduling:
			out.SchedulingJobs++
		case job.StateCollecting:
			out.CollectingJobs++
		}
	}
	m.mu.Unlock()
	out.PolicyPrimary = m.policyName
	if m.shadowsOn {
		out.PolicyShadows = make(map[string]PolicyShadowStats, len(m.shadows))
		for _, sr := range m.shadows {
			out.PolicyShadows[sr.name] = sr.statsSnapshot(int64(out.SchedulingJobs))
		}
	}
	return out
}

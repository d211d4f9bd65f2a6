package server

import (
	"venn/internal/core"
	"venn/internal/job"
	"venn/internal/obs"
)

// Metrics is the GET /v1/metrics payload: cumulative counters, gauges,
// queue depths and handler latency percentiles. It holds no rates: a rate is
// the difference of two snapshots' counters over the time between them.
// Latency percentiles are estimated from the cumulative obs histograms.
//
// It is also the one listing of the daemon's telemetry: GET /metrics renders
// every field tagged prom:"counter,<help>" or prom:"gauge,<help>" as the
// family venn_<json key> (plus _total for a counter whose key lacks it), and
// prom:"-" marks a field the exposition leaves out — ratios, which
// Prometheus derives itself, maps and summaries. Adding a counter is adding
// a field.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds" prom:"gauge,Seconds since the daemon started."`
	Shards        int     `json:"shards" prom:"-"`
	CheckIns      int64   `json:"checkins_total" prom:"counter,Admitted device check-ins."`
	Assignments   int64   `json:"assignments_total" prom:"counter,Task assignments handed out."`
	Reports       int64   `json:"reports_total" prom:"counter,Task reports accepted."`
	Failures      int64   `json:"failures_total" prom:"counter,Task reports of a failed task."`
	Aborts        int64   `json:"aborts_total" prom:"counter,Collection attempts aborted and resubmitted."`

	// CompletedJobs counts jobs that finished every round; AvgJCTSeconds is
	// their mean job completion time, the paper's headline metric (0 before
	// the first completes).
	CompletedJobs int     `json:"completed_jobs_total" prom:"counter,Jobs that finished every round."`
	AvgJCTSeconds float64 `json:"avg_jct_seconds" prom:"gauge,Mean job completion time of the completed jobs, in seconds."`
	// SupplyPerHour is the fleet-wide check-in rate the scheduler plans with
	// (the supply estimate over its averaging window). It covers the
	// check-ins the core has drained into its history; a snapshot never
	// drains them itself.
	SupplyPerHour float64 `json:"supply_per_hour" prom:"gauge,Fleet-wide device check-ins per hour in the scheduler's supply estimate."`

	// The job counts are rendered as one labelled family, venn_jobs{state}.
	ActiveJobs     int   `json:"active_jobs" prom:"-"`
	SchedulingJobs int   `json:"scheduling_jobs" prom:"-"` // queue depth: jobs with an open request
	CollectingJobs int   `json:"collecting_jobs" prom:"-"`
	KnownDevices   int64 `json:"known_devices" prom:"gauge,Devices currently in the registry."`
	BusyDevices    int64 `json:"busy_devices" prom:"gauge,Devices currently holding a task."`

	// PolicyPrimary names the scheduling policy serving assignments.
	PolicyPrimary string `json:"policy_primary" prom:"-"`

	// Plan-lifecycle telemetry: every plan refresh counts once, as a
	// rebuild when its inputs moved and Algorithm 1 reran, or as a patch
	// when they had not and the previous plan was republished.
	PlanRebuilds int64 `json:"plan_rebuilds" prom:"counter,Plan refreshes that reran Algorithm 1 because the group set, a cell rate or a queue moved."`
	PlanPatches  int64 `json:"plan_patches" prom:"counter,Plan refreshes with unchanged inputs that republished the previous plan."`
	// Algorithm 2's verdict on every opened request, one counter per exit
	// of the tier decision (core.TierExit); they sum to the requests opened.
	// Zero under a policy other than venn.
	TierExitMatchingDisabled int64 `json:"tier_exit_matching_disabled_total" prom:"counter,Opened requests run unfiltered because tier matching is off or has one tier."`
	TierExitNoProfile        int64 `json:"tier_exit_no_profile_total" prom:"counter,Opened requests run unfiltered to profile devices: no mature response profile yet."`
	TierExitNoCuts           int64 `json:"tier_exit_no_cuts_total" prom:"counter,Opened requests run unfiltered because the profile yields no tier cuts."`
	TierExitNotFaster        int64 `json:"tier_exit_not_faster_total" prom:"counter,Opened requests run unfiltered because the sampled tier is not faster than the mix."`
	TierExitRegime           int64 `json:"tier_exit_regime_total" prom:"counter,Opened requests run unfiltered because arrivals cannot sustain rounds at response-time cadence."`
	TierExitPoolShort        int64 `json:"tier_exit_pool_short_total" prom:"counter,Opened requests run unfiltered because the tier's idle pool does not cover the demand."`
	TierExitTradeOff         int64 `json:"tier_exit_trade_off_total" prom:"counter,Opened requests run unfiltered because the tier trade-off condition is false."`
	TierExitFilterApplied    int64 `json:"tier_exit_filter_applied_total" prom:"counter,Opened requests run restricted to one device tier."`
	// LockFreeCheckIns counts check-ins answered from a plan snapshot
	// without entering the scheduler lock.
	LockFreeCheckIns int64 `json:"lock_free_checkins_total" prom:"counter,Check-ins answered from a plan snapshot without the scheduler lock."`
	// DevicesEvicted counts registry entries dropped by TTL sweeps.
	DevicesEvicted int64 `json:"devices_evicted_total" prom:"counter,Device registry entries dropped by TTL sweeps."`
	// The device registry's shape (registry.go), summed over its shards:
	// table slots, slots holding a device (= KnownDevices) or a tombstone —
	// (live+tombstones)/slots is the load factor — the ID arenas' bytes, IDs
	// of evicted devices not yet compacted away included, the bytes the
	// tables and arenas hold allocated (RegistryBytes/RegistryLive is the
	// registry's cost per device), and table rebuilds.
	RegistrySlots      int64 `json:"registry_slots" prom:"gauge,Device registry table slots, all shards."`
	RegistryLive       int64 `json:"registry_live" prom:"gauge,Device registry slots holding a device."`
	RegistryTombstones int64 `json:"registry_tombstones" prom:"gauge,Device registry slots holding an evicted device's tombstone."`
	RegistryIDBytes    int64 `json:"registry_id_bytes" prom:"gauge,Bytes in the device registry's ID arenas, evicted IDs not yet compacted included."`
	RegistryBytes      int64 `json:"registry_bytes" prom:"gauge,Bytes allocated to the device registry's tables and ID arenas, all shards."`
	RegistryRehashes   int64 `json:"registry_rehashes_total" prom:"counter,Device registry table rebuilds (growth, tombstone purge, arena compaction)."`

	// Core commit telemetry. Every core mutation (an assignment batch, a
	// report batch, a job arrival, a plan refresh) commits in one core
	// section under the core mutex (Manager.lockCore). CoreRounds counts the
	// sections: CoreFastPathOps those whose TryLock took the mutex at once,
	// CoreCombinedOps those that waited for it, and CoreOpsPerRound is the
	// waited share. CoreWaitNs gives the waits' percentiles in nanoseconds.
	// The names are those of the flat-combining pipeline the sections
	// replaced, kept so that dashboards and the benchmark read them as before.
	CoreRounds      int64          `json:"core_rounds" prom:"counter,Core sections: core mutations committed under the core mutex."`
	CoreCombinedOps int64          `json:"core_combined_ops" prom:"counter,Core sections that waited for the core mutex."`
	CoreOpsPerRound float64        `json:"core_ops_per_round" prom:"-"`
	CoreFastPathOps int64          `json:"core_fastpath_ops" prom:"counter,Core sections that took the core mutex without waiting."`
	CoreWaitNs      LatencySummary `json:"core_wait_ns" prom:"-"`
	StreamTelemetry
	ClusterTelemetry

	// HandlerLatencyMs gives per-op end-to-end handler latency percentiles
	// in milliseconds, derived from the always-on obs total histograms
	// (every transport feeds them); ops with no traffic are omitted. The
	// percentile resolution is the histograms' power-of-two bucketing (2x).
	HandlerLatencyMs map[string]LatencySummary `json:"handler_latency_ms" prom:"-"`

	// RequestStageNs breaks sampled request time down per op and stage
	// ("read", "decode", "queue_wait", "apply", "hop", "encode", "write"),
	// in nanoseconds. Populated from 1-in-ObsSampleEvery sampled spans;
	// empty stages are omitted, and the whole map is absent with sampling
	// disabled.
	RequestStageNs map[string]map[string]LatencySummary `json:"request_stage_ns,omitempty" prom:"-"`
	// ObsSampleEvery is the active span sampling rate (0 = spans off).
	ObsSampleEvery int `json:"obs_sample_every" prom:"gauge,Active span sampling rate (0 = spans off)."`
	// FlightRecorded counts requests retained by the flight recorder since
	// start (the ring keeps the slowest obs.FlightSize of them; see
	// /v1/debug/flight).
	FlightRecorded int64 `json:"flight_recorded_total" prom:"counter,Requests retained by the flight recorder since start."`
}

// StreamTelemetry is the stream transport's part of Metrics, read from the
// attached StreamServer; all zero when none is attached.
type StreamTelemetry struct {
	StreamConns     int64 `json:"stream_conns" prom:"gauge,Open stream-transport connections."`
	StreamFramesIn  int64 `json:"stream_frames_in_total" prom:"counter,Stream request frames received."`
	StreamFramesOut int64 `json:"stream_frames_out_total" prom:"counter,Stream response frames written."`
}

// ClusterTelemetry is the federation's part of Metrics, read from the
// attached Router; all absent when standalone. ClusterForwardsIn counts
// peer-forwarded request frames this node served; ClusterForwardsOut counts
// request frames this node forwarded to owning peers; ClusterLocalFallbacks
// counts would-be forwards applied locally instead (owner down, drain, or a
// forward that provably never left this node) — the degraded mode that
// trades ownership locality for availability. Forwards that fail ambiguously
// (timeout mid-flight) are never re-applied locally; they surface to the
// caller as unavailable and count only in ClusterForwardErrors. The peer
// counts are rendered as one labelled family, venn_cluster_peers{state}.
//
// Direct-routing observability: DirectRoutedBatches counts ingress batches
// that needed no peer hop at all (a ring-aware client landed every item on
// its owner), TopologyEpoch tracks the topology the daemon advertises over
// OpTopology, and the byte pair makes the direct-vs-forwarded traffic ratio
// observable (bytes_out counts the payloads of the batch hop frames,
// whether their items arrived encoded or were encoded for the hop; bytes_in
// counts the payload of every hop frame received).
type ClusterTelemetry struct {
	ClusterNodeID         string            `json:"cluster_node_id,omitempty" prom:"-"`
	ClusterRingSize       int               `json:"cluster_ring_size,omitempty" prom:"-"`
	ClusterVNodes         int               `json:"cluster_vnodes,omitempty" prom:"-"`
	ClusterPeersUp        int               `json:"cluster_peers_up,omitempty" prom:"-"`
	ClusterPeersDown      int               `json:"cluster_peers_down,omitempty" prom:"-"`
	ClusterPeerStates     map[string]string `json:"cluster_peer_states,omitempty" prom:"-"` // peer ID -> "up" | "down"
	ClusterForwardsIn     int64             `json:"cluster_forwards_in,omitempty" prom:"counter,Peer-forwarded request frames served."`
	ClusterForwardsOut    int64             `json:"cluster_forwards_out,omitempty" prom:"counter,Request frames forwarded to owning peers."`
	ClusterForwardErrors  int64             `json:"cluster_forward_errors,omitempty" prom:"counter,Federation forwards that failed."`
	ClusterLocalFallbacks int64             `json:"cluster_local_fallbacks,omitempty" prom:"counter,Would-be forwards applied locally instead."`
	DirectRoutedBatches   int64             `json:"direct_routed_batches,omitempty" prom:"counter,Ingress batches whose every item was already on its owner."`
	TopologyEpoch         uint64            `json:"topology_epoch,omitempty" prom:"gauge,Epoch of the federation topology served to ring-aware clients."`
	ForwardBytesIn        int64             `json:"forward_bytes_in,omitempty" prom:"counter,Bytes of hop request frames received."`
	ForwardBytesOut       int64             `json:"forward_bytes_out,omitempty" prom:"counter,Payload bytes of the batch hop frames sent to owning peers."`
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

// RouteCheckInBatch is the check-in batch route's key in the per-op
// latency maps of /v1/metrics. The keys are the string forms of the obs.Op
// enum, so the JSON view, the Prometheus view and the per-stage breakdowns
// share one vocabulary.
const RouteCheckInBatch = "checkin_batch"

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

// MetricsSnapshot assembles the /v1/metrics payload. It moves no pending
// supply into the scheduler's history, so a scrape changes nothing the
// scheduler reads.
func (m *Manager) MetricsSnapshot() Metrics {
	reg := m.reg.stats()
	out := Metrics{
		Shards:           len(m.reg.shards),
		KnownDevices:     reg.Live,
		BusyDevices:      m.reg.busy.Load(),
		CheckIns:         m.checkIns.Load(),
		LockFreeCheckIns: m.lockFreeCheckIns.Load(),
		DevicesEvicted:   m.reg.evictions.Load(),
		HandlerLatencyMs: make(map[string]LatencySummary, int(obs.NumOps)),
		ObsSampleEvery:   m.obs.SampleEvery(),
		FlightRecorded:   m.obs.Flight().Recorded(),
	}
	out.RegistrySlots, out.RegistryLive, out.RegistryTombstones = reg.Slots, reg.Live, reg.Tombstones
	out.RegistryIDBytes, out.RegistryBytes, out.RegistryRehashes = reg.IDBytes, reg.Bytes, reg.Rehashes
	out.CoreFastPathOps = m.coreFast.Load()
	out.CoreCombinedOps = m.coreWaited.Load()
	out.CoreRounds = out.CoreFastPathOps + out.CoreCombinedOps
	if out.CoreRounds > 0 {
		out.CoreOpsPerRound = float64(out.CoreCombinedOps) / float64(out.CoreRounds)
	}
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
	if s := m.streamBox.load(); s != nil {
		out.StreamTelemetry = s.StreamTelemetry()
	}
	if r := m.router(); r != nil {
		out.ClusterTelemetry = r.ClusterTelemetry()
	}
	m.mu.Lock()
	now := m.now()
	out.UptimeSeconds = float64(now) / 1000
	out.Assignments = int64(m.assignments)
	out.Reports = int64(m.reports)
	out.Failures = int64(m.failures)
	out.Aborts = int64(m.aborts)
	out.CompletedJobs = len(m.completed)
	if out.CompletedJobs > 0 {
		out.AvgJCTSeconds = m.completedJCT / float64(out.CompletedJobs)
	}
	out.SupplyPerHour = m.env.DB.TotalRatePerHour(now)
	if m.venn != nil {
		out.PlanRebuilds = int64(m.venn.PlanRebuilds)
		out.PlanPatches = int64(m.venn.PlanPatches)
		ex := &m.venn.TierExits
		out.TierExitMatchingDisabled = int64(ex[core.TierExitMatchingDisabled])
		out.TierExitNoProfile = int64(ex[core.TierExitNoProfile])
		out.TierExitNoCuts = int64(ex[core.TierExitNoCuts])
		out.TierExitNotFaster = int64(ex[core.TierExitNotFaster])
		out.TierExitRegime = int64(ex[core.TierExitRegime])
		out.TierExitPoolShort = int64(ex[core.TierExitPoolShort])
		out.TierExitTradeOff = int64(ex[core.TierExitTradeOff])
		out.TierExitFilterApplied = int64(ex[core.TierExitFilterApplied])
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
	return out
}

// Package loadreport is the JSON report cmd/vennload writes and
// cmd/benchguard checks. Both commands use these types, so a renamed field
// changes the writer and the reader together.
package loadreport

import "venn/internal/server"

// Schema names the report format.
const Schema = "venn/bench_serve/v1"

// Report is one vennload invocation: the host it ran on and its runs.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	UnixTime  int64  `json:"unix_time"`
	Runs      []Run  `json:"runs"`
}

// Percentiles summarises a latency sample.
type Percentiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// Node is one federation member's slice of a cluster run: client-side
// throughput of the lane that drove it plus the member's own federation
// counters, as its /v1/metrics reports them.
type Node struct {
	Node           string  `json:"node"`
	CheckIns       int64   `json:"checkins"`
	CheckInsPerSec float64 `json:"checkins_per_sec"`
	Errors         int64   `json:"errors"`
	JobsDone       int     `json:"jobs_done"`
	server.ClusterTelemetry
}

// Run is one load run. Federation runs carry a Node row per member, and
// single-daemon runs the daemon's /v1/metrics.
type Run struct {
	Mode             string           `json:"mode"`
	Transport        string           `json:"transport"`
	Shards           int              `json:"shards,omitempty"`
	Policy           string           `json:"policy,omitempty"`
	DemandFrac       float64          `json:"demand_frac,omitempty"`
	ServedByPolicy   map[string]int64 `json:"served_by_policy,omitempty"`
	JCTAvgSeconds    float64          `json:"jct_avg_seconds,omitempty"`
	JCTP90Seconds    float64          `json:"jct_p90_seconds,omitempty"`
	JCTJainFairness  float64          `json:"jct_jain_fairness,omitempty"`
	Agents           int              `json:"agents"`
	Conns            int              `json:"conns"`
	StreamConns      int              `json:"stream_conns,omitempty"`
	Batch            int              `json:"batch"`
	DurationSeconds  float64          `json:"duration_seconds"`
	CheckIns         int64            `json:"checkins"`
	CheckInsPerSec   float64          `json:"checkins_per_sec"`
	Assignments      int64            `json:"assignments"`
	Reports          int64            `json:"reports"`
	Errors           int64            `json:"errors"`
	JobsTotal        int              `json:"jobs_total"`
	JobsDone         int              `json:"jobs_done"`
	RequestLatencyMs Percentiles      `json:"request_latency_ms"`
	Nodes            []Node           `json:"nodes,omitempty"`
	ServerMetrics    *server.Metrics  `json:"server_metrics,omitempty"`
}

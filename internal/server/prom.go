package server

import (
	"reflect"
	"strings"
	"sync"

	"venn/internal/obs"
)

// Prometheus text-format view of the daemon's telemetry (GET /metrics). It
// exposes the same counters and histograms as the JSON /v1/metrics payload,
// renamed into Prometheus conventions: cumulative counters keep their
// _total suffix and durations are histograms in seconds. The output passes
// obs.ValidateExposition (and promtool), which CI checks.

// promScalar is one single-sample family: a Metrics field tagged
// prom:"counter,<help>" or prom:"gauge,<help>".
type promScalar struct {
	index            []int // reflect.Value.FieldByIndex path into Metrics
	name, help, kind string
	cluster          bool // a ClusterTelemetry field: rendered only when federated
}

// promScalars lists the tagged fields of Metrics in declaration order, named
// venn_<json key>, plus _total for a counter whose key lacks it.
var promScalars = sync.OnceValue(func() []promScalar {
	t := reflect.TypeFor[Metrics]()
	clusterField, _ := t.FieldByName("ClusterTelemetry")
	var out []promScalar
	for _, f := range reflect.VisibleFields(t) {
		kind, help, ok := strings.Cut(f.Tag.Get("prom"), ",")
		if !ok {
			continue // prom:"-", or an embedded struct
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		name := "venn_" + key
		if kind == "counter" && !strings.HasSuffix(name, "_total") {
			name += "_total"
		}
		out = append(out, promScalar{f.Index, name, help, kind, f.Index[0] == clusterField.Index[0]})
	}
	return out
})

// WritePrometheus renders the full exposition into b.
func WritePrometheus(b *strings.Builder, m *Manager) {
	mt := m.MetricsSnapshot()
	federated := mt.ClusterNodeID != ""

	// gauge renders a gauge family with one sample per state label, or a
	// single unlabelled sample when states is nil.
	gauge := func(name, help string, states []string, vals ...float64) {
		obs.PromFamily(b, name, help, "gauge")
		for i, v := range vals {
			label := ""
			if states != nil {
				label = `state="` + states[i] + `"`
			}
			obs.PromSample(b, name, label, v)
		}
	}
	healthy := 0.0
	if m.Health().OK {
		healthy = 1
	}
	gauge("venn_healthy", "Whether the daemon reports healthy (see /v1/healthz).", nil, healthy)

	v := reflect.ValueOf(mt)
	for _, s := range promScalars() {
		if s.cluster && !federated {
			continue
		}
		obs.PromFamily(b, s.name, s.help, s.kind)
		f := v.FieldByIndex(s.index)
		var x float64
		switch {
		case f.CanInt():
			x = float64(f.Int())
		case f.CanUint():
			x = float64(f.Uint())
		default:
			x = f.Float()
		}
		obs.PromSample(b, s.name, "", x)
	}

	gauge("venn_jobs", "Jobs by lifecycle state.", []string{"active", "scheduling", "collecting"},
		float64(mt.ActiveJobs), float64(mt.SchedulingJobs), float64(mt.CollectingJobs))
	if federated {
		gauge("venn_cluster_peers", "Federation peers by state.", []string{"up", "down"},
			float64(mt.ClusterPeersUp), float64(mt.ClusterPeersDown))
	}

	const total, stage = "venn_request_duration_seconds", "venn_request_stage_duration_seconds"
	// End-to-end handler latency, always-on, per op — every transport feeds
	// these histograms.
	obs.PromFamily(b, total, "End-to-end request latency by op.", "histogram")
	for op := obs.Op(0); op < obs.NumOps; op++ {
		if s := m.obs.TotalSnapshot(op); s.Count() > 0 {
			obs.PromHist(b, total, `op="`+op.String()+`"`, s)
		}
	}

	// Sampled per-stage breakdown (1 in ObsSampleEvery requests).
	obs.PromFamily(b, stage, "Sampled request latency by op and stage.", "histogram")
	for op := obs.Op(0); op < obs.NumOps; op++ {
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if s := m.obs.StageSnapshot(op, st); s.Count() > 0 {
				obs.PromHist(b, stage, `op="`+op.String()+`",stage="`+st.String()+`"`, s)
			}
		}
	}
}

package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"venn/internal/obs"
)

// TestHealthz asserts the health endpoint answers 200 with the status body
// while the daemon is serving normally.
func TestHealthz(t *testing.T) {
	m := NewManager(Config{})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK {
		t.Fatalf("healthy daemon reports unhealthy: %+v", h)
	}
}

// peersRouter is a federation Router that reports fixed peer counts and
// routes nothing: the embedded nil Router's methods are never called.
type peersRouter struct {
	Router
	up, down int
}

func (r *peersRouter) ClusterTelemetry() ClusterTelemetry {
	return ClusterTelemetry{ClusterNodeID: "self", ClusterPeersUp: r.up, ClusterPeersDown: r.down}
}

// TestHealthReportsWedgedCore holds the core mutex past coreWedgeAfter, as a
// stuck core section would: Health and GET /v1/healthz must still answer,
// within a second, unhealthy with 503 — standalone, and federated with the
// peer counts still reported.
func TestHealthReportsWedgedCore(t *testing.T) {
	for _, tc := range []struct {
		name     string
		router   *peersRouter
		up, down int
	}{
		{"standalone", nil, 0, 0},
		{"federated", &peersRouter{up: 2, down: 1}, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A frozen clock keeps UptimeSeconds equal between the two reads
			// below; the wedge itself is measured on the wall clock.
			start := time.Now()
			m := NewManager(Config{Clock: func() time.Time { return start }})
			if tc.router != nil {
				m.SetRouter(tc.router)
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			m.coreHeldSince.Store(time.Now().Add(-2 * coreWedgeAfter).UnixNano())

			within := func(what string, f func()) {
				done := make(chan struct{})
				go func() { f(); close(done) }()
				select {
				case <-done:
				case <-time.After(time.Second):
					t.Fatalf("%s blocked on the wedged core", what)
				}
			}
			var h HealthStatus
			within("Health", func() { h = m.Health() })
			if h.OK || h.Detail != "core commit pipeline wedged" || h.PeersUp != tc.up || h.PeersDown != tc.down {
				t.Errorf("Health() = %+v, want unhealthy, wedged, peers %d up %d down", h, tc.up, tc.down)
			}
			rec := httptest.NewRecorder()
			within("GET /v1/healthz", func() {
				Handler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
			})
			var body HealthStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if body.CoreHeldSeconds = h.CoreHeldSeconds; rec.Code != http.StatusServiceUnavailable || body != h {
				t.Errorf("GET /v1/healthz = %d %+v, want 503 %+v", rec.Code, body, h)
			}
		})
	}
}

// TestEveryMetricTagged keeps Metrics the one listing of the exposition:
// every exported numeric field, embedded ones included, says how /metrics
// renders it (prom:"counter,<help>", prom:"gauge,<help>") or that it does not
// (prom:"-"), and the derived family names are distinct and well-formed.
func TestEveryMetricTagged(t *testing.T) {
	names := map[string]string{}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Metrics]()) {
		if f.Anonymous || !f.IsExported() {
			continue
		}
		tag, ok := f.Tag.Lookup("prom")
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			if !ok {
				t.Errorf("Metrics.%s has no prom tag", f.Name)
			}
		}
		if kind, help, _ := strings.Cut(tag, ","); tag != "-" && (kind != "counter" && kind != "gauge" || help == "") {
			t.Errorf("Metrics.%s: prom tag %q, want \"counter,<help>\", \"gauge,<help>\" or \"-\"", f.Name, tag)
		}
	}
	valid := regexp.MustCompile(`^venn_[a-z0-9_]+$`)
	for _, s := range promScalars() {
		if !valid.MatchString(s.name) {
			t.Errorf("family name %q is not a valid metric name", s.name)
		}
		if s.kind == "counter" && !strings.HasSuffix(s.name, "_total") {
			t.Errorf("counter %q lacks the _total suffix", s.name)
		}
		if prev, dup := names[s.name]; dup {
			t.Errorf("family %s rendered from both %s and %s", s.name, prev, s.help)
		}
		names[s.name] = s.help
	}
	if len(names) == 0 {
		t.Fatal("no tagged fields")
	}
}

// TestFlightEndpoint drives sampled requests through the HTTP path and
// asserts the flight recorder retains them, dump shape included.
func TestFlightEndpoint(t *testing.T) {
	m := NewManager(Config{ObsSampleEvery: 1})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	for i := 0; i < 4; i++ {
		resp := postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "fd-1", CPU: 0.5, Mem: 0.5}}})
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/v1/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		SampleEvery int               `json:"sample_every"`
		Recorded    int64             `json:"recorded_total"`
		Records     []json.RawMessage `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.SampleEvery != 1 {
		t.Fatalf("sample_every = %d, want 1", dump.SampleEvery)
	}
	if dump.Recorded < 4 || len(dump.Records) < 4 {
		t.Fatalf("flight retained %d/%d records, want >= 4", len(dump.Records), dump.Recorded)
	}
	var rec struct {
		TraceID string           `json:"trace_id"`
		Op      string           `json:"op"`
		TotalNs int64            `json:"total_ns"`
		Stages  map[string]int64 `json:"stage_ns"`
	}
	if err := json.Unmarshal(dump.Records[0], &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.TraceID) != 16 || rec.TraceID == "0000000000000000" {
		t.Fatalf("trace_id = %q, want 16 hex digits nonzero", rec.TraceID)
	}
	if rec.TotalNs <= 0 {
		t.Fatalf("total_ns = %d", rec.TotalNs)
	}
}

// TestPrometheusEndpoint asserts GET /metrics serves a well-formed text
// exposition covering the core counters and the request histograms.
func TestPrometheusEndpoint(t *testing.T) {
	m := NewManager(Config{ObsSampleEvery: 1})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "pm-1", CPU: 0.5, Mem: 0.5}}})
	resp.Body.Close()

	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	families, samples, err := obs.ValidateExposition(text)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if families == 0 || samples == 0 {
		t.Fatalf("empty exposition: %d families, %d samples", families, samples)
	}
	for _, want := range []string{
		"venn_healthy 1",
		"venn_checkins_total 1",
		// The registry's shape after one 4-byte ID: 64 shards of 8 slots.
		"venn_registry_slots 512",
		"venn_registry_live 1",
		"venn_registry_tombstones 0",
		"venn_registry_id_bytes 4",
		"venn_registry_rehashes_total 0",
		"venn_request_duration_seconds_count",
		"venn_request_stage_duration_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestUnifiedStageHistograms asserts satellite 6: both transports land in
// the same per-stage histograms, surfaced by /v1/metrics.
func TestUnifiedStageHistograms(t *testing.T) {
	m := NewManager(Config{ObsSampleEvery: 1})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "uh-1", CPU: 0.5, Mem: 0.5}}})
	resp.Body.Close()

	mt := m.MetricsSnapshot()
	if mt.ObsSampleEvery != 1 {
		t.Fatalf("ObsSampleEvery = %d", mt.ObsSampleEvery)
	}
	lat, ok := mt.HandlerLatencyMs[RouteCheckInBatch]
	if !ok || lat.Count == 0 {
		t.Fatalf("handler latency missing for %s: %+v", RouteCheckInBatch, mt.HandlerLatencyMs)
	}
	stages, ok := mt.RequestStageNs[RouteCheckInBatch]
	if !ok {
		t.Fatalf("no stage breakdown for %s: %v", RouteCheckInBatch, mt.RequestStageNs)
	}
	if s, ok := stages[obs.StageDecode.String()]; !ok || s.Count == 0 {
		t.Fatalf("decode stage unobserved: %+v", stages)
	}
	if mt.FlightRecorded == 0 {
		t.Fatal("flight recorder saw nothing")
	}
}

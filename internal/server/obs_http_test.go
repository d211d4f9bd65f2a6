package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// TestFlightEndpoint drives sampled requests through the HTTP path and
// asserts the flight recorder retains them, dump shape included.
func TestFlightEndpoint(t *testing.T) {
	m := NewManager(Config{ObsSampleEvery: 1})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	for i := 0; i < 4; i++ {
		resp := postJSON(t, srv, "/v1/checkin", CheckIn{DeviceID: "fd-1", CPU: 0.5, Mem: 0.5})
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

	resp := postJSON(t, srv, "/v1/checkin", CheckIn{DeviceID: "pm-1", CPU: 0.5, Mem: 0.5})
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

	resp := postJSON(t, srv, "/v1/checkin", CheckIn{DeviceID: "uh-1", CPU: 0.5, Mem: 0.5})
	resp.Body.Close()

	mt := m.MetricsSnapshot()
	if mt.ObsSampleEvery != 1 {
		t.Fatalf("ObsSampleEvery = %d", mt.ObsSampleEvery)
	}
	lat, ok := mt.HandlerLatencyMs[RouteCheckIn]
	if !ok || lat.Count == 0 {
		t.Fatalf("handler latency missing for %s: %+v", RouteCheckIn, mt.HandlerLatencyMs)
	}
	stages, ok := mt.RequestStageNs[RouteCheckIn]
	if !ok {
		t.Fatalf("no stage breakdown for %s: %v", RouteCheckIn, mt.RequestStageNs)
	}
	if s, ok := stages[obs.StageDecode.String()]; !ok || s.Count == 0 {
		t.Fatalf("decode stage unobserved: %+v", stages)
	}
	if mt.FlightRecorded == 0 {
		t.Fatal("flight recorder saw nothing")
	}
}

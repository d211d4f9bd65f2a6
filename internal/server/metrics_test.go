package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestLatencyTrack pins the core-wait summary of /v1/metrics to the
// manager's wait histogram: a cumulative count, and percentiles within the
// factor of two that power-of-two buckets allow.
func TestLatencyTrack(t *testing.T) {
	m := newTestManager(newFakeClock())
	if s := m.MetricsSnapshot().CoreWaitNs; s != (LatencySummary{}) {
		t.Fatalf("empty summary: %+v", s)
	}
	for i := int64(1); i <= 100; i++ {
		m.coreWait.Observe(i * 1000)
	}
	s := m.MetricsSnapshot().CoreWaitNs
	if s.Count != 100 || s.Max < 100e3 || s.Max > 200e3 {
		t.Fatalf("summary: %+v", s)
	}
	if s.P50 < 25e3 || s.P50 > 100e3 {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P99 < 50e3 || s.P99 > 200e3 || s.P99 < s.P50 {
		t.Errorf("p99 = %v", s.P99)
	}
}

func TestMetricsSnapshotAndEndpoint(t *testing.T) {
	m := newTestManager(newFakeClock())
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/jobs", JobSpec{Category: "General", DemandPerRound: 2, Rounds: 1})
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "m0", CPU: 0.6, Mem: 0.6}}})
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{
		{DeviceID: "m1", CPU: 0.7, Mem: 0.7},
		{DeviceID: "m2", CPU: 0.4, Mem: 0.4},
	}})
	resp.Body.Close()

	r, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mt Metrics
	if err := json.NewDecoder(r.Body).Decode(&mt); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	if mt.CheckIns != 3 {
		t.Errorf("checkins_total = %d, want 3", mt.CheckIns)
	}
	if mt.Assignments != 2 {
		t.Errorf("assignments_total = %d, want 2", mt.Assignments)
	}
	if mt.KnownDevices != 3 || mt.BusyDevices != 2 {
		t.Errorf("devices: known=%d busy=%d", mt.KnownDevices, mt.BusyDevices)
	}
	if mt.Shards != defaultShards {
		t.Errorf("shards = %d", mt.Shards)
	}
	if mt.RegistryLive != 3 || mt.RegistrySlots != defaultShards*minShardSlots || mt.RegistryIDBytes != 6 ||
		mt.RegistryTombstones != 0 || mt.RegistryRehashes != 0 {
		t.Errorf("registry shape: %+v", mt)
	}
	if mt.ActiveJobs != 1 || mt.CollectingJobs != 1 {
		t.Errorf("job depths: %+v", mt)
	}
	cb, ok := mt.HandlerLatencyMs[RouteCheckInBatch]
	if !ok || cb.Count != 2 || cb.P99 < 0 {
		t.Errorf("checkin_batch latency: %+v (ok=%v)", cb, ok)
	}
	if _, ok := mt.HandlerLatencyMs[RouteReportBatch]; ok {
		t.Error("untouched route must be omitted from the latency map")
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	m := newTestManager(newFakeClock())
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/metrics", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST metrics status %d", resp.StatusCode)
	}
}

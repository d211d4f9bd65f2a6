package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestRateCounter(t *testing.T) {
	var rc rateCounter
	// 5 events/s for the 10 seconds preceding "now" (second 100).
	for s := int64(90); s < 100; s++ {
		rc.Add(s, 5)
	}
	if got := rc.PerSec(100, 0); got != 5 {
		t.Errorf("PerSec = %v, want 5", got)
	}
	// The current, still-filling second is excluded.
	rc.Add(100, 1000)
	if got := rc.PerSec(100, 0); got != 5 {
		t.Errorf("PerSec with open second = %v, want 5", got)
	}
	// A quiet window decays to zero once the buckets fall out of range.
	if got := rc.PerSec(100+rateRingSeconds+1, 0); got != 0 {
		t.Errorf("stale PerSec = %v, want 0", got)
	}
	// Bucket reuse after the ring wraps.
	rc.Add(100+rateRingSeconds, 7)
	if got := rc.PerSec(101+rateRingSeconds, 0); got != 0.7 {
		t.Errorf("reused-bucket PerSec = %v, want 0.7", got)
	}
}

// TestRatesOfAYoungDaemon pins the rate window to the daemon's age: five
// seconds after start, 50 check-ins are 10/s, not 50 spread over the full
// ten-second window; from ten seconds on the window is the fixed one.
func TestRatesOfAYoungDaemon(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	svc := NewService(m, TransportStream)
	if got := m.MetricsSnapshot().CheckInsPerSec; got != 0 {
		t.Errorf("checkins_per_sec in the start second = %v, want 0", got)
	}
	for s := 0; s < 5; s++ {
		cis := make([]CheckIn, 10)
		for i := range cis {
			cis[i] = CheckIn{DeviceID: fmt.Sprintf("young-%d-%d", s, i), CPU: 0.5, Mem: 0.5}
		}
		if _, err := svc.CheckInBatchLocal(CheckInBatchRequest{CheckIns: cis}, nil); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second)
	}
	mt := m.MetricsSnapshot()
	if mt.CheckInsPerSec != 10 {
		t.Errorf("checkins_per_sec at 5 s = %v, want 10", mt.CheckInsPerSec)
	}
	if got := mt.CheckInsPerSecByTransport[TransportStream]; got != 10 {
		t.Errorf("stream checkins_per_sec at 5 s = %v, want 10", got)
	}
	clk.advance(5 * time.Second)
	if got := m.MetricsSnapshot().CheckInsPerSec; got != 5 {
		t.Errorf("checkins_per_sec at 10 s = %v, want 5", got)
	}
	clk.advance(5 * time.Second)
	if got := m.MetricsSnapshot().CheckInsPerSec; got != 0 {
		t.Errorf("checkins_per_sec at 15 s = %v, want 0", got)
	}
}

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
	clk := newFakeClock()
	m := newTestManager(clk)
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

	// Rates: the three check-ins above, one second on.
	clk.advance(time.Second)
	if got := m.MetricsSnapshot().CheckInsPerSec; got != 3 {
		t.Errorf("checkins_per_sec = %v, want 3", got)
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

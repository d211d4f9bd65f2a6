package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"venn/internal/obs"
	"venn/internal/stats"
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

// driveSeededJobs runs a seeded workload long enough for the scheduler's
// response profiles to mature: a standing set of multi-round jobs of every
// category, a fleet of 240 devices with fixed scores checking in 24 at a
// time, and reports whose durations fall with capability, one in ten a
// failure. A job that finishes is replaced until 40 have registered.
func driveSeededJobs(t *testing.T, m *Manager, clk *fakeClock) {
	t.Helper()
	rng := stats.NewRNG(43)
	cats := []string{"General", "High-Perf", "Compute-Rich", "Memory-Rich"}
	fleet := make([]CheckIn, 240)
	for i := range fleet {
		fleet[i] = CheckIn{DeviceID: fmt.Sprintf("seed-%03d", i), CPU: rng.Float64(), Mem: rng.Float64()}
	}
	registered := 0
	register := func() {
		if _, err := m.RegisterJob(JobSpec{
			Name:           fmt.Sprintf("job-%d", registered),
			Category:       cats[registered%len(cats)],
			DemandPerRound: 3 + registered%4,
			Rounds:         2 + registered%5,
		}); err != nil {
			t.Fatal(err)
		}
		registered++
	}
	for registered < 8 {
		register()
	}
	for step := 0; step < 400; step++ {
		clk.advance(20 * time.Second)
		batch := make([]CheckIn, 24)
		for i := range batch {
			batch[i] = fleet[rng.Intn(len(fleet))]
		}
		res := m.CheckInBatch(batch)
		var reps []Report
		for i, r := range res {
			if r.Assigned {
				capability := (batch[i].CPU + batch[i].Mem) / 2
				reps = append(reps, Report{
					DeviceID: batch[i].DeviceID, JobID: r.JobID, OK: rng.Float64() >= 0.1,
					DurationSeconds: 60 * (1.5 - capability) * rng.Uniform(0.9, 1.1),
				})
			}
		}
		if len(reps) > 0 {
			m.ReportBatch(reps)
		}
		m.Tick()
		for st := m.MetricsSnapshot(); st.ActiveJobs < 8 && registered < 40; st.ActiveJobs++ {
			register()
		}
	}
}

// TestTierExitsAndRunningJCT checks a seeded run's end state. Algorithm 2's
// exit counters sum to the requests the manager opened — one per job
// registration, per round a job went on from and per aborted attempt — and
// render as valid exposition. The running JCT sum behind avg_jct_seconds
// equals, bit for bit, the walk over the completed jobs it replaced. No
// finished job keeps an in-flight table.
func TestTierExitsAndRunningJCT(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(Config{Clock: clk.now, Seed: 43, DisableDailyBudget: true})
	driveSeededJobs(t, m, clk)
	mt := m.MetricsSnapshot()

	exits := []int64{mt.TierExitMatchingDisabled, mt.TierExitNoProfile, mt.TierExitNoCuts,
		mt.TierExitNotFaster, mt.TierExitRegime, mt.TierExitPoolShort, mt.TierExitTradeOff, mt.TierExitFilterApplied}
	var sum int64
	reasons := 0
	for _, n := range exits {
		sum += n
		if n > 0 {
			reasons++
		}
	}
	opened := mt.Aborts
	for _, st := range m.Jobs() {
		opened += int64(st.CompletedRounds)
		if st.State != "done" {
			opened++
		}
	}
	if sum != opened || sum == 0 {
		t.Errorf("tier exits %v sum to %d; the manager opened %d requests", exits, sum, opened)
	}
	// A run this long gets past the profiling rounds.
	if mt.TierExitNoProfile == 0 || reasons < 2 {
		t.Errorf("tier exits %v: want profiling rounds and at least one later exit", exits)
	}
	t.Logf("tier exits %v over %d requests, %d completed jobs", exits, opened, mt.CompletedJobs)

	m.mu.Lock()
	var jct float64
	for _, mj := range m.completed {
		jct += mj.j.JCT().Seconds()
		if mj.inFlight != nil {
			t.Errorf("finished job %d keeps an in-flight table", mj.j.ID)
		}
	}
	n := len(m.completed)
	m.mu.Unlock()
	if n == 0 {
		t.Fatal("no job completed")
	}
	if mt.CompletedJobs != n || mt.AvgJCTSeconds != jct/float64(n) {
		t.Errorf("completed %d, avg JCT %v; the walk over completed gives %d, %v", mt.CompletedJobs, mt.AvgJCTSeconds, n, jct/float64(n))
	}

	var b strings.Builder
	WritePrometheus(&b, m)
	if _, _, err := obs.ValidateExposition(b.String()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if want := fmt.Sprintf("\nvenn_tier_exit_no_profile_total %d\n", mt.TierExitNoProfile); !strings.Contains(b.String(), want) {
		t.Errorf("exposition lacks %q", strings.TrimSpace(want))
	}
}

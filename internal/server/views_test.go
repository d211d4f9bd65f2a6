package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"venn/internal/stats"
)

// TestViewsAgreeAndScrapesChangeNothing drives ExampleHandler's two jobs and
// fleet to done over HTTP, on a clock that moves a minute per check-in so
// the jobs take time. /v1/metrics must count as many completed jobs as
// /v1/jobs lists as done, with their mean JCT; /metrics must carry the same
// values; and neither scrape may move pending supply into the scheduler's
// history.
func TestViewsAgreeAndScrapesChangeNothing(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	m := NewManager(Config{Clock: func() time.Time { return time.Unix(0, clock.Load()) }})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	for _, spec := range []JobSpec{
		{Name: "keyboard", Category: "General", DemandPerRound: 8, Rounds: 2},
		{Name: "emoji", Category: "High-Perf", DemandPerRound: 4, Rounds: 2},
	} {
		postJSON(t, srv, "/v1/jobs", spec).Body.Close()
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 60; i++ {
		ci := CheckIn{DeviceID: fmt.Sprintf("phone-%03d", i), CPU: rng.Float64(), Mem: rng.Float64()}
		var resp CheckInBatchResponse
		decodeBody(t, postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{ci}}), &resp)
		if asg := resp.Results[0]; asg.Assigned {
			postJSON(t, srv, "/v1/report/batch", ReportBatchRequest{Reports: []Report{{
				DeviceID: ci.DeviceID, JobID: asg.JobID, OK: true,
				DurationSeconds: 30 + 60*rng.Float64(),
			}}}).Body.Close()
		}
		clock.Add(int64(time.Minute))
	}
	// A surplus device once every job is done: its check-in is answered
	// from the plan snapshot and leaves its supply pending.
	postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "late", CPU: 0.5, Mem: 0.5}}}).Body.Close()
	if !m.supplyDirty.Load() {
		t.Fatal("no supply pending before the scrapes")
	}

	var jobs []JobStatus
	decodeBody(t, get(t, srv, "/v1/jobs"), &jobs)
	done, jct := 0, 0.0
	for _, j := range jobs {
		if j.State == "done" {
			done++
			jct += j.JCTSeconds
		}
	}
	if done != 2 {
		t.Fatalf("%d of %d jobs done, want 2: %+v", done, len(jobs), jobs)
	}
	var mt Metrics
	decodeBody(t, get(t, srv, "/v1/metrics"), &mt)
	if mt.CompletedJobs != done {
		t.Errorf("completed_jobs_total = %d, /v1/jobs lists %d done", mt.CompletedJobs, done)
	}
	if want := jct / float64(done); mt.AvgJCTSeconds != want || want <= 0 {
		t.Errorf("avg_jct_seconds = %v, want the done jobs' mean JCT %v (> 0)", mt.AvgJCTSeconds, want)
	}

	body, err := io.ReadAll(get(t, srv, "/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	for family, want := range map[string]float64{
		"venn_completed_jobs_total": float64(mt.CompletedJobs),
		"venn_avg_jct_seconds":      mt.AvgJCTSeconds,
		"venn_failures_total":       float64(mt.Failures),
		"venn_aborts_total":         float64(mt.Aborts),
		"venn_supply_per_hour":      mt.SupplyPerHour,
	} {
		if got, ok := promValue(string(body), family); !ok || got != want {
			t.Errorf("/metrics %s = %v (found %v), /v1/metrics has %v", family, got, ok, want)
		}
	}

	if !m.supplyDirty.Load() {
		t.Error("a scrape moved pending supply into the scheduler's history")
	}
	if m.StatsSnapshot(); m.supplyDirty.Load() {
		t.Error("StatsSnapshot left supply pending")
	}
}

func get(t *testing.T, srv *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// promValue finds the unlabelled sample of family in a text exposition.
func promValue(exposition, family string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, family+" "); ok {
			x, err := strconv.ParseFloat(v, 64)
			return x, err == nil
		}
	}
	return 0, false
}

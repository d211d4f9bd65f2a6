package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCheckInBatchBasic(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	st, err := m.RegisterJob(JobSpec{Name: "kbd", Category: "General", DemandPerRound: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}

	res := m.CheckInBatch([]CheckIn{
		{DeviceID: "d0", CPU: 0.6, Mem: 0.6},
		{DeviceID: "d1", CPU: 0.7, Mem: 0.7},
		{DeviceID: "", CPU: 0.5, Mem: 0.5},   // missing id: per-item error
		{DeviceID: "d2", CPU: 0.5, Mem: 0.5}, // demand filled: no assignment
	})
	if len(res) != 4 {
		t.Fatalf("results: %d", len(res))
	}
	for i := 0; i < 2; i++ {
		if res[i].Error != "" || !res[i].Assigned || res[i].JobID != st.ID {
			t.Fatalf("result %d: %+v", i, res[i])
		}
	}
	if res[2].Error == "" || res[2].Assigned {
		t.Fatalf("missing device_id must error: %+v", res[2])
	}
	if res[3].Error != "" || res[3].Assigned {
		t.Fatalf("over-demand check-in must be refused without error: %+v", res[3])
	}

	// The whole batch ran under one admission pass: both workers report
	// and the round completes.
	rr := m.ReportBatch([]Report{
		{DeviceID: "d0", JobID: st.ID, OK: true, DurationSeconds: 20},
		{DeviceID: "d1", JobID: st.ID, OK: true, DurationSeconds: 25},
		{DeviceID: "ghost", JobID: st.ID, OK: true, DurationSeconds: 5},
	})
	if rr[0].Error != "" || rr[1].Error != "" {
		t.Fatalf("valid reports errored: %+v", rr)
	}
	if rr[2].Error == "" {
		t.Fatalf("unknown device must error: %+v", rr[2])
	}
	got, err := m.JobStatusByID(st.ID)
	if err != nil || got.State != "done" {
		t.Fatalf("job after batch reports: %+v %v", got, err)
	}
}

func TestCheckInBatchDuplicateDevice(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 5, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	// The same device twice in one batch: the reservation taken by the
	// first occurrence must reject the second as busy.
	res := m.CheckInBatch([]CheckIn{
		{DeviceID: "dup", CPU: 0.6, Mem: 0.6},
		{DeviceID: "dup", CPU: 0.6, Mem: 0.6},
	})
	if !res[0].Assigned {
		t.Fatalf("first occurrence: %+v", res[0])
	}
	if res[1].Assigned || res[1].Error == "" {
		t.Fatalf("duplicate occurrence must be rejected busy: %+v", res[1])
	}
}

func TestCheckInBatchDailyBudget(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 10, Rounds: 2}); err != nil {
		t.Fatal(err)
	}
	res := m.CheckInBatch([]CheckIn{{DeviceID: "d0", CPU: 0.6, Mem: 0.6}})
	if !res[0].Assigned {
		t.Fatalf("first: %+v", res[0])
	}
	if rr := m.ReportBatch([]Report{{DeviceID: "d0", JobID: res[0].JobID, OK: true, DurationSeconds: 9}}); rr[0].Error != "" {
		t.Fatal(rr[0].Error)
	}
	// Same day: refused, no error.
	res = m.CheckInBatch([]CheckIn{{DeviceID: "d0", CPU: 0.6, Mem: 0.6}})
	if res[0].Assigned || res[0].Error != "" {
		t.Fatalf("same-day: %+v", res[0])
	}
	// Next day: assignable again.
	clk.advance(25 * time.Hour)
	res = m.CheckInBatch([]CheckIn{{DeviceID: "d0", CPU: 0.6, Mem: 0.6}})
	if !res[0].Assigned {
		t.Fatalf("next-day: %+v", res[0])
	}
}

func TestBatchMatchesSingleSemantics(t *testing.T) {
	// The same sequence of check-ins must yield identical assignments as one
	// batch and as batches of one.
	run := func(batched bool) []Assignment {
		clk := newFakeClock()
		m := newTestManager(clk)
		if _, err := m.RegisterJob(JobSpec{Category: "High-Perf", DemandPerRound: 2, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 3, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
		cis := []CheckIn{
			{DeviceID: "strong-a", CPU: 0.9, Mem: 0.9},
			{DeviceID: "weak-a", CPU: 0.2, Mem: 0.2},
			{DeviceID: "strong-b", CPU: 0.8, Mem: 0.8},
			{DeviceID: "weak-b", CPU: 0.3, Mem: 0.1},
		}
		out := make([]Assignment, len(cis))
		if batched {
			for i, r := range m.CheckInBatch(cis) {
				if r.Error != "" {
					t.Fatalf("batch item %d: %s", i, r.Error)
				}
				out[i] = r.Assignment
			}
			return out
		}
		for i, ci := range cis {
			asg, err := checkInOne(m, ci)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = asg
		}
		return out
	}
	single, batch := run(false), run(true)
	for i := range single {
		if single[i] != batch[i] {
			t.Errorf("item %d: single=%+v batch=%+v", i, single[i], batch[i])
		}
	}
}

func TestHTTPBatchEndpoints(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/jobs", JobSpec{Name: "kbd", Category: "General", DemandPerRound: 2, Rounds: 1})
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp = postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{
		{DeviceID: "b0", CPU: 0.6, Mem: 0.6},
		{DeviceID: "b1", CPU: 0.7, Mem: 0.7},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkin batch status %d", resp.StatusCode)
	}
	var cbr CheckInBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&cbr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cbr.Results) != 2 || !cbr.Results[0].Assigned || !cbr.Results[1].Assigned {
		t.Fatalf("batch results: %+v", cbr.Results)
	}

	resp = postJSON(t, srv, "/v1/report/batch", ReportBatchRequest{Reports: []Report{
		{DeviceID: "b0", JobID: st.ID, OK: true, DurationSeconds: 30},
		{DeviceID: "b1", JobID: st.ID, OK: true, DurationSeconds: 31},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report batch status %d", resp.StatusCode)
	}
	var rbr ReportBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&rbr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rbr.Results) != 2 || rbr.Results[0].Error != "" || rbr.Results[1].Error != "" {
		t.Fatalf("report results: %+v", rbr.Results)
	}

	got, err := m.JobStatusByID(st.ID)
	if err != nil || got.State != "done" {
		t.Fatalf("job after HTTP batches: %+v %v", got, err)
	}

	// Oversized batches are rejected up front.
	huge := CheckInBatchRequest{CheckIns: make([]CheckIn, MaxBatch+1)}
	for i := range huge.CheckIns {
		huge.CheckIns[i] = CheckIn{DeviceID: fmt.Sprintf("x%d", i)}
	}
	resp = postJSON(t, srv, "/v1/checkin/batch", huge)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status %d", resp.StatusCode)
	}

	// Wrong method.
	r2, err := http.Get(srv.URL + "/v1/checkin/batch")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET checkin/batch status %d", r2.StatusCode)
	}

	// Malformed JSON.
	r3, err := http.Post(srv.URL+"/v1/report/batch", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON batch status %d", r3.StatusCode)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeClock is an adjustable wall clock for deterministic manager tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func newTestManager(clk *fakeClock) *Manager { return NewManager(Config{Clock: clk.now}) }

// checkInOne serves ci as a batch of one, the only way a check-in is served.
// A per-item rejection comes back as an error carrying the item's message
// (ErrDeviceBusy's, for a busy device).
func checkInOne(m *Manager, ci CheckIn) (Assignment, error) {
	res := m.CheckInBatch([]CheckIn{ci})[0]
	if res.Error != "" {
		return Assignment{}, errors.New(res.Error)
	}
	return res.Assignment, nil
}

// reportOne is checkInOne for a report.
func reportOne(m *Manager, r Report) error {
	if res := m.ReportBatch([]Report{r})[0]; res.Error != "" {
		return errors.New(res.Error)
	}
	return nil
}

// isErr reports whether err is the per-item rejection carrying sentinel's
// message.
func isErr(err, sentinel error) bool { return err != nil && err.Error() == sentinel.Error() }

func TestRegisterAndCompleteJob(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	st, err := m.RegisterJob(JobSpec{Name: "kbd", Category: "General", DemandPerRound: 2, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "scheduling" || st.Round != 1 {
		t.Fatalf("status: %+v", st)
	}

	// Two devices check in and get the job.
	for i := 0; i < 2; i++ {
		clk.advance(time.Minute)
		asg, err := checkInOne(m, CheckIn{DeviceID: fmt.Sprintf("d%d", i), CPU: 0.6, Mem: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		if !asg.Assigned || asg.JobID != st.ID {
			t.Fatalf("assignment %d: %+v", i, asg)
		}
	}
	// Both report: round 1 completes (target = ceil(0.8*2) = 2).
	for i := 0; i < 2; i++ {
		clk.advance(30 * time.Second)
		if err := reportOne(m, Report{DeviceID: fmt.Sprintf("d%d", i), JobID: st.ID, OK: true, DurationSeconds: 45}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.JobStatusByID(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.CompletedRounds != 1 || got.Round != 2 {
		t.Fatalf("after round 1: %+v", got)
	}

	// Round 2 with two fresh devices (the first two used their daily
	// budget).
	for i := 2; i < 4; i++ {
		clk.advance(time.Minute)
		asg, err := checkInOne(m, CheckIn{DeviceID: fmt.Sprintf("d%d", i), CPU: 0.7, Mem: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		if !asg.Assigned {
			t.Fatalf("round 2 assignment %d refused", i)
		}
	}
	for i := 2; i < 4; i++ {
		if err := reportOne(m, Report{DeviceID: fmt.Sprintf("d%d", i), JobID: st.ID, OK: true, DurationSeconds: 50}); err != nil {
			t.Fatal(err)
		}
	}
	got, err = m.JobStatusByID(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "done" || got.JCTSeconds <= 0 {
		t.Fatalf("job not done: %+v", got)
	}
	s := m.MetricsSnapshot()
	if s.CompletedJobs != 1 || s.ActiveJobs != 0 || s.Assignments != 4 {
		t.Errorf("stats: %+v", s)
	}
}

func TestOneTaskPerDayLive(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 5, Rounds: 3}); err != nil {
		t.Fatal(err)
	}
	asg, err := checkInOne(m, CheckIn{DeviceID: "d0", CPU: 0.5, Mem: 0.5})
	if err != nil || !asg.Assigned {
		t.Fatalf("first check-in: %+v %v", asg, err)
	}
	// Busy device checking in again conflicts.
	if _, err := checkInOne(m, CheckIn{DeviceID: "d0", CPU: 0.5, Mem: 0.5}); !isErr(err, ErrDeviceBusy) {
		t.Fatalf("busy check-in error = %v", err)
	}
	// After reporting, the same day check-in yields no assignment.
	if err := reportOne(m, Report{DeviceID: "d0", JobID: asg.JobID, OK: true, DurationSeconds: 30}); err != nil {
		t.Fatal(err)
	}
	asg2, err := checkInOne(m, CheckIn{DeviceID: "d0", CPU: 0.5, Mem: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if asg2.Assigned {
		t.Fatal("device must not get a second task the same day")
	}
	// Next day it works again.
	clk.advance(25 * time.Hour)
	asg3, err := checkInOne(m, CheckIn{DeviceID: "d0", CPU: 0.5, Mem: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !asg3.Assigned {
		t.Fatal("device must be usable the next day")
	}
}

func TestDeadlineAbortLive(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	st, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := checkInOne(m, CheckIn{DeviceID: fmt.Sprintf("d%d", i), CPU: 0.5, Mem: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// One response only, then the deadline passes.
	if err := reportOne(m, Report{DeviceID: "d0", JobID: st.ID, OK: true, DurationSeconds: 20}); err != nil {
		t.Fatal(err)
	}
	clk.advance(20 * time.Minute)
	m.Tick()
	got, _ := m.JobStatusByID(st.ID)
	if got.State != "scheduling" {
		t.Fatalf("deadline must reopen scheduling: %+v", got)
	}
	if m.MetricsSnapshot().Aborts != 1 {
		t.Error("abort not counted")
	}
	// A late (stale) report from d1 must be ignored without error.
	if err := reportOne(m, Report{DeviceID: "d1", JobID: st.ID, OK: true, DurationSeconds: 900}); err != nil {
		t.Fatal(err)
	}
	got, _ = m.JobStatusByID(st.ID)
	if got.Responses != 0 {
		t.Error("stale report counted toward the new attempt")
	}
}

// TestWrongJobReportKeepsTheDevice: a report naming a job that does not hold
// the device, while another live job does, is refused with ErrWrongJob and
// frees nothing: the device stays busy, its task stays in flight, and the
// right report is then accepted. A report that no live job can take (here
// after the deadline ended the attempt) still frees the device.
func TestWrongJobReportKeepsTheDevice(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(Config{Clock: clk.now, DisableDailyBudget: true})
	a, err := m.RegisterJob(JobSpec{Name: "a", Category: "General", DemandPerRound: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	asg, err := checkInOne(m, CheckIn{DeviceID: "d", CPU: 0.5, Mem: 0.5})
	if err != nil || !asg.Assigned || asg.JobID != a.ID {
		t.Fatalf("check-in: %+v, %v, want job %d", asg, err, a.ID)
	}
	b, err := m.RegisterJob(JobSpec{Name: "b", Category: "General", DemandPerRound: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := stateOf(t, m)
	for _, wrong := range []int{a.ID + 1000, b.ID} {
		if err := reportOne(m, Report{DeviceID: "d", JobID: wrong, OK: true, DurationSeconds: 5}); !isErr(err, ErrWrongJob) {
			t.Errorf("report naming job %d: %v, want %v", wrong, err, ErrWrongJob)
		}
		if after := stateOf(t, m); after != before {
			t.Errorf("report naming job %d changed the state:\n got %+v\nwant %+v", wrong, after, before)
		}
	}
	if _, err := checkInOne(m, CheckIn{DeviceID: "d", CPU: 0.5, Mem: 0.5}); !isErr(err, ErrDeviceBusy) {
		t.Fatalf("check-in of the working device: %v, want %v", err, ErrDeviceBusy)
	}
	if err := reportOne(m, Report{DeviceID: "d", JobID: a.ID, OK: true, DurationSeconds: 5}); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(t, m); st.reports != before.reports+1 || st.busy != 0 {
		t.Errorf("the right report: %+v, before %+v", st, before)
	}
	if got, _ := m.JobStatusByID(a.ID); got.Responses != 1 || got.Assigned != 1 {
		t.Errorf("job a: %d responses, %d assigned; want 1 and 1", got.Responses, got.Assigned)
	}

	// A straggler: the deadline ends c's attempt while e holds a task of it.
	m2 := NewManager(Config{Clock: clk.now, DisableDailyBudget: true})
	c, err := m2.RegisterJob(JobSpec{Name: "c", Category: "General", DemandPerRound: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e", "f"} {
		if asg, err := checkInOne(m2, CheckIn{DeviceID: id, CPU: 0.5, Mem: 0.5}); err != nil || !asg.Assigned {
			t.Fatalf("check-in %s: %+v, %v", id, asg, err)
		}
	}
	if err := reportOne(m2, Report{DeviceID: "f", JobID: c.ID, OK: true, DurationSeconds: 5}); err != nil {
		t.Fatal(err)
	}
	clk.advance(20 * time.Minute)
	m2.Tick()
	if err := reportOne(m2, Report{DeviceID: "e", JobID: c.ID + 1000, OK: true, DurationSeconds: 900}); err != nil {
		t.Fatalf("straggler's report: %v", err)
	}
	if busy := m2.MetricsSnapshot().BusyDevices; busy != 0 {
		t.Errorf("after the straggler's report: %d busy devices, want 0", busy)
	}
}

func TestFailureTriggersEarlyAbort(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	st, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 4, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := checkInOne(m, CheckIn{DeviceID: fmt.Sprintf("d%d", i), CPU: 0.5, Mem: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// Target = ceil(0.8*4) = 4: one failure makes completion impossible.
	if err := reportOne(m, Report{DeviceID: "d0", JobID: st.ID, OK: false}); err != nil {
		t.Fatal(err)
	}
	got, _ := m.JobStatusByID(st.ID)
	if got.State != "scheduling" {
		t.Fatalf("early abort expected: %+v", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	m := newTestManager(newFakeClock())
	if _, err := m.RegisterJob(JobSpec{Category: "Quantum", DemandPerRound: 1, Rounds: 1}); err == nil {
		t.Error("unknown category must be rejected")
	}
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 0, Rounds: 1}); err == nil {
		t.Error("zero demand must be rejected")
	}
	if _, err := m.JobStatusByID(99); err == nil {
		t.Error("unknown job must error")
	}
}

func TestEligibilityRespectedLive(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	if _, err := m.RegisterJob(JobSpec{Category: "High-Perf", DemandPerRound: 1, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	asg, err := checkInOne(m, CheckIn{DeviceID: "weak", CPU: 0.1, Mem: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if asg.Assigned {
		t.Fatal("weak device must not serve a High-Perf job")
	}
	asg, err = checkInOne(m, CheckIn{DeviceID: "strong", CPU: 0.9, Mem: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !asg.Assigned {
		t.Fatal("strong device must be assigned")
	}
}

// --- HTTP layer ---

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPEndToEnd(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(clk)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	// Register a job.
	resp := postJSON(t, srv, "/v1/jobs", JobSpec{Name: "emoji", Category: "General", DemandPerRound: 1, Rounds: 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Device checks in: a batch of one.
	resp = postJSON(t, srv, "/v1/checkin/batch", CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "phone-1", CPU: 0.8, Mem: 0.8}}})
	var cres CheckInBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&cres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cres.Results) != 1 || !cres.Results[0].Assigned || cres.Results[0].JobName != "emoji" {
		t.Fatalf("assignment: %+v", cres.Results)
	}

	// Device reports; job completes.
	resp = postJSON(t, srv, "/v1/report/batch", ReportBatchRequest{Reports: []Report{{DeviceID: "phone-1", JobID: cres.Results[0].JobID, OK: true, DurationSeconds: 12}}})
	var rres ReportBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&rres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(rres.Results) != 1 || rres.Results[0].Error != "" {
		t.Fatalf("report status %d: %+v", resp.StatusCode, rres.Results)
	}

	// Job status over HTTP.
	r2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(r2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got.State != "done" {
		t.Fatalf("job state = %s", got.State)
	}

	// Metrics and list endpoints.
	r3, _ := http.Get(srv.URL + "/v1/metrics")
	var stats Metrics
	if err := json.NewDecoder(r3.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if stats.CompletedJobs != 1 {
		t.Errorf("stats: %+v", stats)
	}
	r4, _ := http.Get(srv.URL + "/v1/jobs")
	var all []JobStatus
	if err := json.NewDecoder(r4.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if len(all) != 1 {
		t.Errorf("jobs list = %v", all)
	}
}

func TestHTTPErrors(t *testing.T) {
	m := newTestManager(newFakeClock())
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	// Bad JSON.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status %d", resp.StatusCode)
	}
	// Unknown job id.
	r2, _ := http.Get(srv.URL + "/v1/jobs/42")
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d", r2.StatusCode)
	}
	// Wrong method.
	r3, _ := http.Get(srv.URL + "/v1/checkin/batch")
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET checkin batch status %d", r3.StatusCode)
	}
	// Bad job id format.
	r4, _ := http.Get(srv.URL + "/v1/jobs/abc")
	r4.Body.Close()
	if r4.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d", r4.StatusCode)
	}
}

func TestVennPrioritizationLive(t *testing.T) {
	// The toy-example behavior through the live API: with an Emoji-style
	// scarce job and a Keyboard-style general job queued, scarce devices
	// must flow to the scarce job.
	clk := newFakeClock()
	m := newTestManager(clk)
	kbd, _ := m.RegisterJob(JobSpec{Name: "kbd", Category: "General", DemandPerRound: 3, Rounds: 1})
	emj, _ := m.RegisterJob(JobSpec{Name: "emoji", Category: "High-Perf", DemandPerRound: 2, Rounds: 1})

	// A strong device: must go to the scarce (High-Perf) job.
	asg, err := checkInOne(m, CheckIn{DeviceID: "strong-1", CPU: 0.9, Mem: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if asg.JobID != emj.ID {
		t.Errorf("strong device went to job %d, want the scarce job %d", asg.JobID, emj.ID)
	}
	// A weak device: only the keyboard job is eligible.
	asg, err = checkInOne(m, CheckIn{DeviceID: "weak-1", CPU: 0.2, Mem: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if asg.JobID != kbd.ID {
		t.Errorf("weak device went to job %d, want keyboard %d", asg.JobID, kbd.ID)
	}
}

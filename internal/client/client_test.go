package client

import (
	"net/http/httptest"
	"testing"
	"time"

	"venn/internal/server"
)

func newTestPair(t *testing.T) (*Client, *httptest.Server) {
	t.Helper()
	m := server.NewManager(server.Config{})
	srv := httptest.NewServer(server.Handler(m))
	t.Cleanup(srv.Close)
	return New(srv.URL).(*Client), srv
}

func TestClientJobLifecycle(t *testing.T) {
	c, _ := newTestPair(t)
	st, err := c.RegisterJob(server.JobSpec{Name: "kbd", Category: "General", DemandPerRound: 1, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "kbd" || st.State != "scheduling" {
		t.Fatalf("status: %+v", st)
	}

	res, err := c.CheckInBatch([]server.CheckIn{{DeviceID: "d0", CPU: 0.7, Mem: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if asg := res[0]; !asg.Assigned || asg.JobID != st.ID {
		t.Fatalf("assignment: %+v", asg)
	}
	rres, err := c.ReportBatch([]server.Report{{DeviceID: "d0", JobID: res[0].JobID, OK: true, DurationSeconds: 15}})
	if err != nil || rres[0].Error != "" {
		t.Fatalf("report: %+v, %v", rres, err)
	}

	done, err := c.WaitForJob(st.ID, 10*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "done" {
		t.Fatalf("job not done: %+v", done)
	}

	jobs, err := c.Jobs()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("Jobs: %v %v", jobs, err)
	}
	stats, err := c.Metrics()
	if err != nil || stats.CompletedJobs != 1 {
		t.Fatalf("Metrics: %+v %v", stats, err)
	}
}

func TestClientErrorSurfacing(t *testing.T) {
	c, _ := newTestPair(t)
	if _, err := c.RegisterJob(server.JobSpec{Category: "Nope", DemandPerRound: 1, Rounds: 1}); err == nil {
		t.Error("bad category must surface an error")
	}
	if _, err := c.JobStatus(77); err == nil {
		t.Error("unknown job must surface an error")
	}
	if res, err := c.CheckInBatch([]server.CheckIn{{}}); err != nil || res[0].Error == "" {
		t.Errorf("missing device_id must surface as the item's error: %+v, %v", res, err)
	}
}

func TestClientWaitTimeout(t *testing.T) {
	c, _ := newTestPair(t)
	st, err := c.RegisterJob(server.JobSpec{Category: "General", DemandPerRound: 5, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForJob(st.ID, 5*time.Millisecond, 30*time.Millisecond); err == nil {
		t.Error("unfulfilled job must time out")
	}
}

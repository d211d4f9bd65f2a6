package client

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"venn/internal/server"
)

func TestClientBatchLifecycle(t *testing.T) {
	c, _ := newTestPair(t)
	st, err := c.RegisterJob(server.JobSpec{Name: "kbd", Category: "General", DemandPerRound: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}

	results, err := c.CheckInBatch([]server.CheckIn{
		{DeviceID: "b0", CPU: 0.7, Mem: 0.7},
		{DeviceID: "b1", CPU: 0.6, Mem: 0.6},
		{DeviceID: "b2", CPU: 0.5, Mem: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results: %d", len(results))
	}
	ids := []string{"b0", "b1", "b2"}
	var reports []server.Report
	assigned := 0
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("item %d: %s", i, r.Error)
		}
		if r.Assigned {
			assigned++
			reports = append(reports, server.Report{
				DeviceID: ids[i], JobID: r.JobID, OK: true, DurationSeconds: 12,
			})
		}
	}
	if assigned != 2 {
		t.Fatalf("assigned = %d, want 2", assigned)
	}
	rr, err := c.ReportBatch(reports)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rr {
		if r.Error != "" {
			t.Fatalf("report %d: %s", i, r.Error)
		}
	}
	done, err := c.WaitForJob(st.ID, 10*time.Millisecond, time.Second)
	if err != nil || done.State != "done" {
		t.Fatalf("job: %+v %v", done, err)
	}

	mt, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if mt.CheckIns != 3 || mt.Assignments != 2 || mt.Reports != 2 {
		t.Errorf("metrics: %+v", mt)
	}
	if _, ok := mt.HandlerLatencyMs["checkin_batch"]; !ok {
		t.Error("checkin_batch latency missing from metrics")
	}
}

// TestClientGetFailsOnceOn5xx: a GET is sent once, and a 5xx reply fails it
// through statusError like any other status of 300 or more.
func TestClientGetFailsOnceOn5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"core wedged","code":5}`))
	}))
	defer srv.Close()
	_, err := New(srv.URL).Metrics()
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Msg != "core wedged" {
		t.Fatalf("err = %v, want an *APIError with status 503", err)
	}
	if calls.Load() != 1 {
		t.Errorf("GET sent %d times, want 1", calls.Load())
	}
}

func TestClientConfigurableTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer srv.Close()
	defer close(block)

	c := New(srv.URL, WithTimeout(50*time.Millisecond))
	start := time.Now()
	_, err := c.Metrics()
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v; the configured 50ms timeout was not applied", elapsed)
	}
}

// TestNonFiniteScoresFailBeforeSending: JSON has no NaN or infinity, so a
// batch carrying one fails in the client with encoding/json's
// *json.UnsupportedValueError instead of going out as a body the server
// rejects whole.
func TestNonFiniteScoresFailBeforeSending(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer ts.Close()
	c := New(ts.URL)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, call := range map[string]func() error{
			"cpu": func() error {
				_, err := c.CheckInBatch([]server.CheckIn{{DeviceID: "ok", CPU: 0.5, Mem: 0.5}, {DeviceID: "bad", CPU: v, Mem: 0.5}})
				return err
			},
			"mem": func() error {
				_, err := c.CheckInBatch([]server.CheckIn{{DeviceID: "bad", CPU: 0.5, Mem: v}})
				return err
			},
			"duration_seconds": func() error {
				_, err := c.ReportBatch([]server.Report{{DeviceID: "bad", JobID: 1, OK: true, DurationSeconds: v}})
				return err
			},
		} {
			var uve *json.UnsupportedValueError
			if err := call(); !errors.As(err, &uve) {
				t.Errorf("%s = %v: error %v (%T), want a *json.UnsupportedValueError", field, v, err, err)
			} else if want := "json: unsupported value: " + strconv.FormatFloat(v, 'g', -1, 64); err.Error() != want {
				t.Errorf("%s = %v: error %q, want %q", field, v, err, want)
			}
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the server saw %d requests, want 0", n)
	}
}

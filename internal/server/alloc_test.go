//go:build !race

package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"venn/internal/server"
)

// TestHTTPCheckInBatchAllocationsFlat pins the JSON check-in route's
// allocations to the request, not to its items: the device IDs are views of
// the pooled body and the reply is encoded into a pooled buffer, so a warm
// surplus batch of 64 allocates no more than a batch of one. Not built under
// the race detector, which makes sync.Pool drop a share of what is put into
// it.
func TestHTTPCheckInBatchAllocationsFlat(t *testing.T) {
	m := server.NewManager(server.Config{DisableDailyBudget: true, ObsSampleEvery: -1})
	h := server.Handler(m)
	perCall := func(n int) float64 {
		cis := make([]server.CheckIn, n)
		for i := range cis {
			cis[i] = server.CheckIn{DeviceID: fmt.Sprintf("alloc-%d-%03d", n, i), CPU: 0.25 + float64(i)/1024, Mem: 0.5}
		}
		body, err := server.CheckInBatchRequest{CheckIns: cis}.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var rd bytes.Reader
		req := httptest.NewRequest(http.MethodPost, "/v1/checkin/batch", nil)
		post := func() {
			rd.Reset(body)
			req.Body = io.NopCloser(&rd)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		post() // admit the devices: every later call is a warm surplus batch
		return testing.AllocsPerRun(200, post)
	}
	one, many := perCall(1), perCall(64)
	if many > one {
		t.Errorf("warm surplus check-in batch: %v allocations for 64 items, %v for 1; want no more for 64", many, one)
	}
}

// TestDemandCommitAllocationsFlat pins the demand commit path's allocations
// to the batch, not to its assignments: a job's in-flight table is keyed by
// device number and presized at registration, so a warm check-in batch whose
// k devices are all assigned, followed by their report batch, allocates no
// more at k = 64 than at k = 1. The job asks for 1<<20 devices a round, so no
// round ever fills; registering it must not reserve a table of that size
// (53 MiB uncapped; a larger demand would, uncapped, exhaust the machine's
// memory rather than fail the check).
func TestDemandCommitAllocationsFlat(t *testing.T) {
	perCall := func(k int) float64 {
		m := server.NewManager(server.Config{DisableDailyBudget: true, ObsSampleEvery: -1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.RegisterJob(server.JobSpec{Name: "flat", Category: "General", DemandPerRound: 1 << 20, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("registering a job of demand 1<<20 allocated %d bytes", grew)
		}
		cis := make([]server.CheckIn, k)
		for i := range cis {
			cis[i] = server.CheckIn{DeviceID: fmt.Sprintf("demand-%d-%03d", k, i), CPU: 0.25 + float64(i)/1024, Mem: 0.5}
		}
		reps := make([]server.Report, k)
		round := func() {
			for i, r := range m.CheckInBatch(cis) {
				if !r.Assigned {
					t.Fatalf("device %d of %d not assigned: %+v", i, k, r)
				}
				reps[i] = server.Report{DeviceID: cis[i].DeviceID, JobID: r.JobID, OK: true, DurationSeconds: 30}
			}
			for i, r := range m.ReportBatch(reps) {
				if r.Error != "" {
					t.Fatalf("report %d of %d: %s", i, k, r.Error)
				}
			}
		}
		round() // admit the devices and warm the pools and the profiles
		return testing.AllocsPerRun(200, round)
	}
	one, many := perCall(1), perCall(64)
	if many > one {
		t.Errorf("demand commit: %v allocations for 64 assigned devices, %v for 1; want no more for 64", many, one)
	}
}

//go:build !race

package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

//go:build !race

package client

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"venn/internal/server"
)

// TestStreamClientDoAllocations pins BenchmarkStreamClientDo's allocs/op: a
// warm call allocates the result slice it hands its caller and nothing else —
// no box per PutBuf, no header per WriteFrame — server side included
// (AllocsPerRun counts process-wide). Not built under the race detector,
// which makes sync.Pool drop a share of what is put into it.
func TestStreamClientDoAllocations(t *testing.T) {
	c, cis := doBenchClient(t)
	ping := func() {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	checkIn := func() {
		if _, err := c.CheckInBatch(cis); err != nil {
			t.Fatal(err)
		}
	}
	ping()
	checkIn()
	if allocs := testing.AllocsPerRun(200, ping); allocs > 1 {
		t.Errorf("ping: %v allocations per call, want at most 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, checkIn); allocs != 1 {
		t.Errorf("64-item check-in batch: %v allocations per call, want 1 (the results)", allocs)
	}
}

// cannedReply answers every request with a fixed body, after draining the
// request's.
type cannedReply []byte

func (r cannedReply) RoundTrip(req *http.Request) (*http.Response, error) {
	_, _ = io.Copy(io.Discard, req.Body)
	_ = req.Body.Close()
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(r)),
		Request:    req,
	}, nil
}

// TestHTTPCheckInBatchAllocationsFlat pins the HTTP client's allocations to
// the call, not to the batch: the request body is sized once from the batch,
// the results are presized, and the reply is read into a pooled buffer, so a
// 64-item check-in batch allocates exactly what a 1-item batch does.
func TestHTTPCheckInBatchAllocationsFlat(t *testing.T) {
	perCall := func(n int) float64 {
		results := make([]server.CheckInResult, n)
		reply, err := server.CheckInBatchResponse{Results: results}.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		c := New("http://venn.test", WithHTTPClient(&http.Client{Transport: cannedReply(reply)}))
		cis := make([]server.CheckIn, n)
		for i := range cis {
			cis[i] = server.CheckIn{DeviceID: fmt.Sprintf("dev-%06d", i), CPU: 0.3 + float64(i)/997, Mem: 0.5}
		}
		checkIn := func() {
			if _, err := c.CheckInBatch(cis); err != nil {
				t.Fatal(err)
			}
		}
		checkIn()
		return testing.AllocsPerRun(200, checkIn)
	}
	if one, many := perCall(1), perCall(64); many != one {
		t.Errorf("HTTP check-in batch: %v allocations for 64 items, %v for 1; want the same", many, one)
	}
}

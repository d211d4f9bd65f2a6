//go:build !race

package client

import "testing"

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

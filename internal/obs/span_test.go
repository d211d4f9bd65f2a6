package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.Mark(StageApply, time.Millisecond)
	s.SetError()
	s.SetForwarded()
	s.Finish()
	if s.TraceID() != 0 {
		t.Fatal("nil span must carry trace ID 0")
	}
}

func TestSamplingRate(t *testing.T) {
	r := NewRegistry(4)
	sampled := 0
	for i := 0; i < 400; i++ {
		if sp := r.Sample(OpCheckInBatch); sp != nil {
			sampled++
			sp.Finish()
		}
	}
	if sampled != 100 {
		t.Fatalf("sampled %d of 400 at 1-in-4, want exactly 100", sampled)
	}
	if got := r.Flight().Recorded(); got != 100 {
		t.Fatalf("flight recorded %d, want 100", got)
	}
}

func TestSamplingDisabled(t *testing.T) {
	r := NewRegistry(-1)
	if r.SampleEvery() != 0 {
		t.Fatalf("SampleEvery() = %d, want 0 when disabled", r.SampleEvery())
	}
	for i := 0; i < 100; i++ {
		if sp := r.Sample(OpCheckInBatch); sp != nil {
			t.Fatal("disabled registry sampled a span")
		}
	}
	if sp := r.StartTraced(OpCheckInBatch, 42); sp != nil {
		t.Fatal("disabled registry started a traced span")
	}
	// The always-on total path keeps working regardless.
	r.ObserveTotal(OpCheckInBatch, time.Millisecond)
	if got := r.TotalSnapshot(OpCheckInBatch).Count(); got != 1 {
		t.Fatalf("total count = %d, want 1", got)
	}
}

func TestDefaultSampleEvery(t *testing.T) {
	if got := NewRegistry(0).SampleEvery(); got != DefaultSampleEvery {
		t.Fatalf("SampleEvery() = %d, want default %d", got, DefaultSampleEvery)
	}
}

func TestSpanFinishRecordsStages(t *testing.T) {
	r := NewRegistry(1)
	sp := r.Sample(OpCheckInBatch)
	if sp == nil {
		t.Fatal("1-in-1 sampling returned nil")
	}
	if sp.TraceID() == 0 {
		t.Fatal("sampled span has zero trace ID")
	}
	sp.Mark(StageDecode, 3*time.Microsecond)
	sp.Mark(StageApply, 5*time.Microsecond)
	sp.Mark(StageApply, 5*time.Microsecond) // accumulates
	sp.SetForwarded()
	sp.Finish()
	sp.Finish() // idempotent
	if got := r.StageSnapshot(OpCheckInBatch, StageApply).Count(); got != 1 {
		t.Fatalf("apply stage count = %d, want 1", got)
	}
	if sum := r.StageSnapshot(OpCheckInBatch, StageApply).Sum; sum != int64(10*time.Microsecond) {
		t.Fatalf("apply stage sum = %d, want accumulated 10µs", sum)
	}
	recs := r.Flight().Snapshot()
	if len(recs) != 1 {
		t.Fatalf("flight has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.Forwarded || rec.Op != "checkin_batch" || rec.StageNs[StageApply] != int64(10*time.Microsecond) {
		t.Fatalf("unexpected flight record %+v", rec)
	}
}

func TestStartTracedInheritsID(t *testing.T) {
	r := NewRegistry(64)
	sp := r.StartTraced(OpCheckInBatch, 0xdeadbeef)
	if sp == nil {
		t.Fatal("StartTraced returned nil with sampling on")
	}
	if sp.TraceID() != 0xdeadbeef {
		t.Fatalf("trace ID %x, want deadbeef", sp.TraceID())
	}
	sp.Finish()
	recs := r.Flight().Snapshot()
	if len(recs) != 1 || !recs[0].Hop || recs[0].TraceID != 0xdeadbeef {
		t.Fatalf("unexpected hop record %+v", recs)
	}
	if r.StartTraced(OpCheckInBatch, 0) != nil {
		t.Fatal("StartTraced with zero trace ID must return nil")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	r := NewRegistry(1)
	seen := make(map[uint64]bool)
	for i := 0; i < 10_000; i++ {
		id := r.newTraceID()
		if id == 0 || seen[id] {
			t.Fatalf("trace ID %x duplicated or zero at iteration %d", id, i)
		}
		seen[id] = true
	}
}

func TestRecordJSON(t *testing.T) {
	rec := Record{TraceID: 0xabc, Op: "checkin_batch", TotalNs: 123}
	rec.StageNs[StageHop] = 77
	buf, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceID string           `json:"trace_id"`
		Stages  map[string]int64 `json:"stage_ns"`
	}
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != "0000000000000abc" || out.Stages["hop"] != 77 {
		t.Fatalf("unexpected JSON %s", buf)
	}
}

// TestFlightConcurrent records from many goroutines while snapshotting;
// under -race this pins the ring against torn reads.
func TestFlightConcurrent(t *testing.T) {
	r := NewRegistry(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, rec := range r.Flight().Snapshot() {
				if rec.Op == "" {
					t.Error("snapshot saw a half-written record")
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	const writers, perWriter = 8, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sp := r.Sample(OpReportBatch)
				sp.Mark(StageApply, time.Duration(i+1))
				sp.Finish()
			}
		}()
	}
	for r.Flight().Recorded() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	recs := r.Flight().Snapshot()
	if len(recs) != FlightSize {
		t.Fatalf("flight retained %d records, want full ring of %d", len(recs), FlightSize)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].TotalNs > recs[i-1].TotalNs {
			t.Fatal("flight snapshot not sorted slowest-first")
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// driveCorePipeline replays a fixed traffic script — staggered job
// registrations, mixed eligible/surplus check-in batches, lone check-ins
// (batches of one), and reports — and returns every result the manager
// handed back, JSON encoded in arrival order. Two managers with the same seed
// and clock must produce byte-identical transcripts.
func driveCorePipeline(t *testing.T, m *Manager, clk *fakeClock) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	record := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	cats := []string{"General", "High-Perf", "Compute-Rich", "Memory-Rich"}
	for step := 0; step < 30; step++ {
		clk.advance(13 * time.Second)
		if step%5 == 0 {
			st, err := m.RegisterJob(JobSpec{
				Name:           fmt.Sprintf("j%d", step),
				Category:       cats[step%len(cats)],
				DemandPerRound: 2 + step%3,
				Rounds:         1 + step%2,
			})
			if err != nil {
				t.Fatal(err)
			}
			record(st)
		}
		// A batch whose device scores straddle the requirement tiers: some
		// items are surplus (answered off the snapshot), some enter the
		// core pipeline.
		cis := make([]CheckIn, 8)
		for i := range cis {
			n := (step*5 + i) % 40
			cis[i] = CheckIn{
				DeviceID: fmt.Sprintf("d%d", n),
				CPU:      float64(n%10) / 10,
				Mem:      float64((n+3)%10) / 10,
			}
		}
		res := m.CheckInBatch(cis)
		record(res)
		var reps []Report
		for i, r := range res {
			if r.Assigned {
				reps = append(reps, Report{
					DeviceID: cis[i].DeviceID, JobID: r.JobID,
					OK: i%5 != 0, DurationSeconds: 9,
				})
			}
		}
		if len(reps) > 0 {
			record(m.ReportBatch(reps))
		}
		// A lone check-in. Its result carries no error, so it encodes exactly
		// as its Assignment: the golden transcript holds those bytes.
		sid := fmt.Sprintf("s%d", step%10)
		asg := m.CheckInBatch([]CheckIn{{DeviceID: sid, CPU: 0.95, Mem: 0.95}})[0]
		if asg.Error != "" {
			t.Fatal(asg.Error)
		}
		record(asg)
		if asg.Assigned {
			if err := reportOne(m, Report{DeviceID: sid, JobID: asg.JobID, OK: true, DurationSeconds: 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := m.MetricsSnapshot()
	record([]int64{st.CheckIns, st.Assignments, st.Reports, st.Failures, st.Aborts})
	return buf.Bytes()
}

// coreTranscriptFile is driveCorePipeline's transcript for seed 7, captured
// when single check-ins and reports had a commit path of their own. A change
// that moves a decision on purpose (a scheduler change) re-captures it.
const coreTranscriptFile = "testdata/core_transcript.json"

// TestCoreTranscriptGolden pins the transcript byte for byte across changes
// to the serving path: how an item reaches the core may change, what the core
// answers and counts may not.
func TestCoreTranscriptGolden(t *testing.T) {
	want, err := os.ReadFile(coreTranscriptFile)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	got := driveCorePipeline(t, NewManager(Config{Clock: clk.now, Seed: 7}), clk)
	if !bytes.Equal(got, want) {
		t.Errorf("core transcript differs from %s:\ngot:\n%s\nwant:\n%s", coreTranscriptFile, got, want)
	}
}

// TestCombinerConcurrentMixedLoad races concurrent mixed surplus/demand
// CheckInBatch and report traffic through the core sections (run under -race
// in CI). Low-spec devices stay surplus for the High-Perf-only demand and are
// answered off the snapshot mid-batch while high-spec items of the same
// batches commit in the batch's core section; budget is disabled so demand
// stays contended for the whole run. The end-state invariants catch lost
// updates. The subtest keeps the name of the default ("auto") commit mode,
// which is now the only core path.
func TestCombinerConcurrentMixedLoad(t *testing.T) {
	t.Run("auto", concurrentMixedLoad)
}

func concurrentMixedLoad(t *testing.T) {
	m := NewManager(Config{DisableDailyBudget: true})
	const (
		workers        = 64
		devicesPerWork = 32
		iterations     = 4
	)
	totalDemand := 0
	for i := 0; i < 8; i++ {
		d := 40 + i*10
		if _, err := m.RegisterJob(JobSpec{
			Name: fmt.Sprintf("hp-%d", i), Category: "High-Perf",
			DemandPerRound: d, Rounds: 2,
		}); err != nil {
			t.Fatal(err)
		}
		totalDemand += d * 2
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				cis := make([]CheckIn, devicesPerWork)
				for i := range cis {
					// Even items are high-spec (High-Perf eligible),
					// odd items are low-spec surplus.
					score := 0.95
					if i%2 == 1 {
						score = 0.05
					}
					cis[i] = CheckIn{
						DeviceID: fmt.Sprintf("w%d-d%d", w, i),
						CPU:      score, Mem: score,
					}
				}
				res := m.CheckInBatch(cis)
				var reps []Report
				for i, r := range res {
					if r.Error != "" {
						t.Errorf("batch item error: %s", r.Error)
						return
					}
					if r.Assigned {
						reps = append(reps, Report{
							DeviceID: cis[i].DeviceID, JobID: r.JobID,
							OK: true, DurationSeconds: 2,
						})
					}
				}
				if len(reps) > 0 {
					for _, rr := range m.ReportBatch(reps) {
						if rr.Error != "" {
							t.Errorf("report item error: %s", rr.Error)
						}
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m.Tick()
				_ = m.MetricsSnapshot()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	st := m.MetricsSnapshot()
	if st.CheckIns == 0 || st.Assignments == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	if st.Assignments > int64(totalDemand) {
		t.Errorf("assignments %d exceed total demand %d", st.Assignments, totalDemand)
	}
	if st.Reports > st.Assignments {
		t.Errorf("more reports than assignments: %+v", st)
	}
	if st.LockFreeCheckIns == 0 {
		t.Errorf("no surplus check-ins took the lock-free path")
	}
	if st.CoreRounds == 0 {
		t.Errorf("no core sections recorded: %+v", st)
	}
	if st.CoreWaitNs.Count != st.CoreCombinedOps {
		t.Errorf("%d waits observed for %d core sections that waited", st.CoreWaitNs.Count, st.CoreCombinedOps)
	}
	busy := 0
	for _, s := range m.reg.all() {
		if s.flags&slotBusy != 0 {
			busy++
		}
	}
	if got := m.reg.busy.Load(); got != int64(busy) {
		t.Errorf("busy gauge %d != actual busy %d", got, busy)
	}
}

// TestDisableDailyBudget proves the benchmark knob: with the budget lifted a
// device that reported back is assignable again the same day; with it in
// force (the default) the second check-in is refused without error.
func TestDisableDailyBudget(t *testing.T) {
	for _, disabled := range []bool{true, false} {
		clk := newFakeClock()
		m := NewManager(Config{Clock: clk.now, DisableDailyBudget: disabled})
		if _, err := m.RegisterJob(JobSpec{Name: "j", Category: "General", DemandPerRound: 10, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
		ci := CheckIn{DeviceID: "dev", CPU: 0.9, Mem: 0.9}
		asg, err := checkInOne(m, ci)
		if err != nil || !asg.Assigned {
			t.Fatalf("disabled=%v: first check-in not assigned: %+v, %v", disabled, asg, err)
		}
		if err := reportOne(m, Report{DeviceID: "dev", JobID: asg.JobID, OK: true, DurationSeconds: 1}); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Minute)
		again, err := checkInOne(m, ci)
		if err != nil {
			t.Fatal(err)
		}
		if again.Assigned != disabled {
			t.Errorf("disabled=%v: same-day reassignment = %v, want %v", disabled, again.Assigned, disabled)
		}
	}
}

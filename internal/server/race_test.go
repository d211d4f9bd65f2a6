package server

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentCheckInReport hammers the sharded manager from hundreds of
// goroutines mixing batches of one and of many, reports, deadline ticks,
// and read-side snapshots. Run under -race (CI does) it is the proof that
// the shard/core lock split has no data races; the invariant checks at the
// end catch lost updates.
func TestConcurrentCheckInReport(t *testing.T) {
	m := NewManager(Config{}) // real clock: concurrent fake clocks would race
	const (
		jobs           = 6
		workers        = 100
		devicesPerWork = 40
	)
	for i := 0; i < jobs; i++ {
		cat := "General"
		if i%3 == 0 {
			cat = "High-Perf"
		}
		if _, err := m.RegisterJob(JobSpec{
			Name: fmt.Sprintf("race-%d", i), Category: cat,
			DemandPerRound: 50, Rounds: 4,
		}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				// Batched path: one batch of this worker's devices,
				// then a batch of reports for the assigned ones.
				cis := make([]CheckIn, devicesPerWork)
				for i := range cis {
					cis[i] = CheckIn{
						DeviceID: fmt.Sprintf("w%d-d%d", w, i),
						CPU:      float64((w+i)%10) / 10,
						Mem:      float64((w+2*i)%10) / 10,
					}
				}
				res := m.CheckInBatch(cis)
				var reports []Report
				for i, r := range res {
					if r.Error != "" {
						t.Errorf("batch item error: %s", r.Error)
						return
					}
					if r.Assigned {
						reports = append(reports, Report{
							DeviceID: cis[i].DeviceID, JobID: r.JobID,
							OK: i%7 != 0, DurationSeconds: 5,
						})
					}
				}
				if len(reports) > 0 {
					for _, rr := range m.ReportBatch(reports) {
						if rr.Error != "" {
							t.Errorf("report item error: %s", rr.Error)
						}
					}
				}
				return
			}
			// Single-request path.
			for i := 0; i < devicesPerWork; i++ {
				id := fmt.Sprintf("w%d-d%d", w, i)
				asg, err := checkInOne(m, CheckIn{
					DeviceID: id,
					CPU:      float64((w+i)%10) / 10,
					Mem:      float64((w+3*i)%10) / 10,
				})
				if err != nil {
					t.Errorf("check-in %s: %v", id, err)
					return
				}
				if !asg.Assigned {
					continue
				}
				if err := reportOne(m, Report{
					DeviceID: id, JobID: asg.JobID, OK: i%5 != 0, DurationSeconds: 3,
				}); err != nil {
					t.Errorf("report %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	// Read-side churn while the writers run.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
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
				_ = m.Jobs()
				_ = m.MetricsSnapshot()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	st := m.MetricsSnapshot()
	mt := st
	if st.CheckIns == 0 || st.Assignments == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	if st.Reports+st.Failures > st.Assignments {
		t.Errorf("more results than assignments: %+v", st)
	}
	if mt.KnownDevices != int64(workers*devicesPerWork) {
		t.Errorf("known devices = %d, want %d", mt.KnownDevices, workers*devicesPerWork)
	}
	// Every reservation must have been either kept (assigned, then freed
	// by its report) or released; count the stragglers still busy and
	// compare against the gauge.
	busy := 0
	for _, s := range m.reg.all() {
		if s.flags&slotBusy != 0 {
			busy++
		}
	}
	if int64(busy) != mt.BusyDevices {
		t.Errorf("busy gauge = %d, actual busy devices = %d", mt.BusyDevices, busy)
	}
}

// TestConcurrentSameDevice drives many goroutines through the SAME device
// IDs so reservations genuinely collide; exactly the busy/daily-budget
// errors may surface, never a double assignment.
func TestConcurrentSameDevice(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 400, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	const devices = 20
	const workers = 50
	var assigned [devices]int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := 0; d < devices; d++ {
				id := fmt.Sprintf("shared-%d", d)
				asg, err := checkInOne(m, CheckIn{DeviceID: id, CPU: 0.6, Mem: 0.6})
				if err != nil {
					continue // busy collision: expected
				}
				if asg.Assigned {
					mu.Lock()
					assigned[d]++
					mu.Unlock()
					// Do NOT report: the device must stay busy so later
					// check-ins collide or hit the daily budget.
				}
			}
		}(w)
	}
	wg.Wait()
	for d, n := range assigned {
		if n > 1 {
			t.Errorf("device %d assigned %d times in one day", d, n)
		}
	}
	st := m.MetricsSnapshot()
	if st.Assignments > devices {
		t.Errorf("%d assignments for %d devices", st.Assignments, devices)
	}
}

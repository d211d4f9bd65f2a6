package server

import (
	"fmt"
	"math"
	"testing"
	"time"

	"venn/internal/stats"
)

// TestDeviceTTLEviction pins the registry-bounding behavior: devices idle
// past Config.DeviceTTL are swept out by Tick (busy ones included once
// their reservation is a full TTL stale), and a returning device simply
// re-registers.
func TestDeviceTTLEviction(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(Config{Clock: clk.now, DeviceTTL: time.Hour})

	// Register a job and get one device assigned so it is busy.
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 1, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	busyAsg, err := checkInOne(m, CheckIn{DeviceID: "busy", CPU: 0.9, Mem: 0.9})
	if err != nil || !busyAsg.Assigned {
		t.Fatalf("busy device must be assigned: %+v %v", busyAsg, err)
	}
	for i := 0; i < 10; i++ {
		if _, err := checkInOne(m, CheckIn{DeviceID: fmt.Sprintf("idle-%d", i), CPU: 0.5, Mem: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.MetricsSnapshot().KnownDevices; got != 11 {
		t.Fatalf("known devices = %d, want 11", got)
	}

	// Within the TTL nothing is evicted.
	clk.advance(30 * time.Minute)
	for i := 0; i < len(m.reg.shards); i++ {
		m.Tick()
	}
	if got := m.MetricsSnapshot().KnownDevices; got != 11 {
		t.Fatalf("premature eviction: known devices = %d, want 11", got)
	}

	// Past the TTL everything goes — including the busy device, whose
	// reservation is a full TTL old and therefore belongs to a crashed
	// agent (its gauge entry must be released with it). Tick enough times
	// for the round-robin sweep to cover all shards.
	clk.advance(time.Hour)
	for i := 0; i < len(m.reg.shards); i++ {
		m.Tick()
	}
	mt := m.MetricsSnapshot()
	if mt.KnownDevices != 0 {
		t.Errorf("known devices after sweep = %d, want 0", mt.KnownDevices)
	}
	if mt.DevicesEvicted != 11 {
		t.Errorf("devices_evicted = %d, want 11", mt.DevicesEvicted)
	}
	if mt.BusyDevices != 0 {
		t.Errorf("busy gauge after evicting a busy device = %d, want 0", mt.BusyDevices)
	}

	// An evicted device can come back as a fresh registration.
	if _, err := checkInOne(m, CheckIn{DeviceID: "idle-0", CPU: 0.5, Mem: 0.5}); err != nil {
		t.Fatalf("returning device rejected: %v", err)
	}
	if got := m.MetricsSnapshot().KnownDevices; got != 1 {
		t.Errorf("known devices after return = %d, want 1", got)
	}
	// A late report from the evicted busy device is an expected, tolerated
	// error — not a crash or a phantom response.
	if err := reportOne(m, Report{DeviceID: "busy", JobID: busyAsg.JobID, OK: true, DurationSeconds: 5}); !isErr(err, ErrUnknownDevice) {
		t.Errorf("stale report error = %v, want ErrUnknownDevice", err)
	}

	// TTL disabled (the default) must never evict.
	m2 := NewManager(Config{Clock: clk.now})
	if _, err := checkInOne(m2, CheckIn{DeviceID: "d", CPU: 0.5, Mem: 0.5}); err != nil {
		t.Fatal(err)
	}
	clk.advance(1000 * time.Hour)
	for i := 0; i < len(m2.reg.shards); i++ {
		m2.Tick()
	}
	if got := m2.MetricsSnapshot().KnownDevices; got != 1 {
		t.Errorf("TTL-disabled manager evicted: known devices = %d, want 1", got)
	}
}

// TestLockFreeFastPathServesSurplus checks the snapshot fast path end to
// end: demand is still fulfilled exactly while surplus check-ins are
// answered without the core mutex, and the lock-free counter proves the
// fast path actually ran.
func TestLockFreeFastPathServesSurplus(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(Config{Clock: clk.now})
	if _, err := m.RegisterJob(JobSpec{Category: "Compute-Rich", DemandPerRound: 3, Rounds: 1}); err != nil {
		t.Fatal(err)
	}

	// A fleet where only some devices are eligible; batch them through.
	cis := make([]CheckIn, 40)
	for i := range cis {
		cpu := 0.2
		if i%4 == 0 {
			cpu = 0.9 // eligible for Compute-Rich
		}
		cis[i] = CheckIn{DeviceID: fmt.Sprintf("d%02d", i), CPU: cpu, Mem: 0.5}
	}
	res := m.CheckInBatch(cis)
	assigned := 0
	for i, r := range res {
		if r.Error != "" {
			t.Fatalf("item %d: %s", i, r.Error)
		}
		if r.Assigned {
			assigned++
			if cis[i].CPU < 0.5 {
				t.Errorf("ineligible device %s assigned", cis[i].DeviceID)
			}
		}
	}
	if assigned != 3 {
		t.Fatalf("assigned = %d, want exactly the demand 3", assigned)
	}

	// Let the assigned devices report so the round (and job) completes and
	// the devices are free again.
	var reports []Report
	for i, r := range res {
		if r.Assigned {
			reports = append(reports, Report{DeviceID: cis[i].DeviceID, JobID: r.JobID, OK: true, DurationSeconds: 5})
		}
	}
	for _, rr := range m.ReportBatch(reports) {
		if rr.Error != "" {
			t.Fatal(rr.Error)
		}
	}

	// The job is done, the plan is republished: a second surplus batch
	// must ride the lock-free path entirely.
	before := m.MetricsSnapshot().LockFreeCheckIns
	clk.advance(25 * time.Hour) // reset the daily budget
	m.Tick()
	res = m.CheckInBatch(cis)
	for i, r := range res {
		if r.Error != "" || r.Assigned {
			t.Fatalf("surplus item %d: %+v", i, r)
		}
	}
	after := m.MetricsSnapshot().LockFreeCheckIns
	if after-before != int64(len(cis)) {
		t.Errorf("lock-free check-ins grew by %d, want %d", after-before, len(cis))
	}
}

// TestCheckInClampsWireScores is the regression guard for the
// out-of-range-cell panic: a device re-checking in with negative or NaN
// scores must be clamped exactly like a fresh registration, never indexing
// the per-cell supply counters out of range.
func TestCheckInClampsWireScores(t *testing.T) {
	m := NewManager(Config{Clock: newFakeClock().now})
	if _, err := checkInOne(m, CheckIn{DeviceID: "d1", CPU: 0.5, Mem: 0.5}); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, ci := range []CheckIn{
		{DeviceID: "d1", CPU: 0.5, Mem: -0.1},
		{DeviceID: "d1", CPU: -2, Mem: 0.9},
		{DeviceID: "d1", CPU: nan, Mem: nan},
		{DeviceID: "d1", CPU: 7, Mem: 7},
		{DeviceID: "fresh-nan", CPU: nan, Mem: -1},
	} {
		if _, err := checkInOne(m, ci); err != nil {
			t.Fatalf("%+v: %v", ci, err)
		}
	}
	res := m.CheckInBatch([]CheckIn{{DeviceID: "d1", CPU: -1, Mem: 2}})
	if res[0].Error != "" {
		t.Fatalf("batch with out-of-range scores: %s", res[0].Error)
	}
}

// TestMetricsExposePlanTelemetry checks the new /v1/metrics fields.
func TestMetricsExposePlanTelemetry(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(Config{Clock: clk.now})
	for i := 0; i < 4; i++ {
		if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 2, Rounds: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("m%02d", i)
		asg, err := checkInOne(m, CheckIn{DeviceID: id, CPU: 0.7, Mem: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		if asg.Assigned {
			if err := reportOne(m, Report{DeviceID: id, JobID: asg.JobID, OK: true, DurationSeconds: 5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mt := m.MetricsSnapshot()
	if mt.PlanRebuilds == 0 {
		t.Error("plan_rebuilds must be positive after serving traffic")
	}
	st := m.MetricsSnapshot()
	if st.PlanRebuilds != mt.PlanRebuilds || st.PlanPatches != mt.PlanPatches {
		t.Errorf("successive snapshots disagree: %+v vs %+v", st, mt)
	}
}

// TestPlanRefreshAccountingUnderStandingQueue drives the shape that keeps
// a standing queue in the scheduler: 48 single-device jobs of 16 rounds in
// one category, served by a seeded fleet of 2,000 devices checking in 64 at
// a time, each assignment reported OK at once, so every report opens the
// job's next round. Every job must finish, and every plan refresh must be
// counted exactly once: plan_rebuilds plus plan_patches equals the epoch of
// the published snapshot, which each refresh advances by one.
func TestPlanRefreshAccountingUnderStandingQueue(t *testing.T) {
	const (
		jobs, rounds = 48, 16
		fleetSize    = 2000
		batch        = 64
	)
	m := NewManager(Config{Clock: newFakeClock().now})
	for i := 0; i < jobs; i++ {
		if _, err := m.RegisterJob(JobSpec{Name: fmt.Sprintf("job-%d", i), Category: "General", DemandPerRound: 1, Rounds: rounds}); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(1)
	fleet := make([]CheckIn, fleetSize)
	for i := range fleet {
		fleet[i] = CheckIn{DeviceID: fmt.Sprintf("load-%06d", i), CPU: rng.Float64(), Mem: rng.Float64()}
	}

	done := func() int {
		n := 0
		for _, st := range m.Jobs() {
			if st.State == "done" {
				n++
			}
		}
		return n
	}
	assigned := 0
	// The fixed clock allows each device one task, and the 768 rounds need
	// fewer devices than the fleet has, so one pass serves every job.
	for lo := 0; lo < fleetSize && done() < jobs; lo += batch {
		cis := fleet[lo:min(lo+batch, fleetSize)]
		var reports []Report
		for i, res := range m.CheckInBatch(cis) {
			if res.Error != "" {
				t.Fatalf("%s: %s", cis[i].DeviceID, res.Error)
			}
			if res.Assigned {
				reports = append(reports, Report{DeviceID: cis[i].DeviceID, JobID: res.JobID, OK: true, DurationSeconds: 10})
			}
		}
		assigned += len(reports)
		for i, res := range m.ReportBatch(reports) {
			if res.Error != "" {
				t.Fatalf("report %+v: %s", reports[i], res.Error)
			}
		}
	}

	mt := m.MetricsSnapshot()
	t.Logf("%d rebuilds, %d patches, %d assignments, %d/%d jobs done",
		mt.PlanRebuilds, mt.PlanPatches, assigned, done(), jobs)
	if got := done(); got != jobs {
		t.Fatalf("%d/%d jobs done after %d assignments", got, jobs, assigned)
	}
	if epoch := m.venn.PlanSnapshot().Epoch(); uint64(mt.PlanRebuilds+mt.PlanPatches) != epoch {
		t.Errorf("%d rebuilds + %d patches, but %d plans were published", mt.PlanRebuilds, mt.PlanPatches, epoch)
	}
}

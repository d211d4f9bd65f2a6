package server

import (
	"fmt"
	"iter"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"venn/internal/device"
	"venn/internal/simtime"
)

// all iterates the registered devices, shard by shard under the shard's lock,
// as (ID, slot handle) pairs. The handle is valid inside the loop body only.
func (r *registry) all() iter.Seq2[string, *slot] {
	return func(yield func(string, *slot) bool) {
		for i := range r.shards {
			sh := &r.shards[i]
			sh.mu.Lock()
			for j := range sh.slots {
				s := &sh.slots[j]
				if s.flags&slotUsed == 0 {
					continue
				}
				if !yield(string(sh.id(s)), s) {
					sh.mu.Unlock()
					return
				}
			}
			sh.mu.Unlock()
		}
	}
}

// TestSlotLayout pins what the registry's cost model rests on: a slot is 32
// bytes, two to a cache line, holds no pointers (so tables are allocated
// noscan) and no scores, which a check-in carries again.
func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 32 {
		t.Errorf("sizeof(slot) = %d, want 32", got)
	}
	typ := reflect.TypeOf(slot{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Int32, reflect.Int64:
		case reflect.Float32, reflect.Float64:
			t.Errorf("slot.%s is a %v; scores do not outlive a check-in", typ.Field(i).Name, k)
		default:
			t.Errorf("slot.%s has kind %v; slots must stay pointer-free", typ.Field(i).Name, k)
		}
	}
}

// oracleDevice is the differential test's model of one registered device.
type oracleDevice struct {
	dev         int32
	cell        uint16 // CellOf the latest check-in's clamped scores
	busy        bool
	lastSeenSec int64
	lastTaskDay int32
}

// TestRegistryDifferential drives the registry and a map[string] oracle
// through the same seeded sequence of batches (admit, then keep or release
// each reservation), reports, TTL sweeps and re-admissions, and requires the
// same answer at every step and the same contents throughout. Batches run
// from 1 to 200 items on tables that start at 8 slots, so most early batches
// outgrow their tables (reserve must make the room up front); the ID pool
// holds an empty and two 64 KiB IDs; the colliding variants narrow the hash
// to 3 bits and to nothing, so distinct IDs share a full 64-bit hash and only
// the ID compare tells them apart.
func TestRegistryDifferential(t *testing.T) {
	grid := device.NewGrid(device.Categories())
	long := strings.Repeat("x", 64<<10)
	for _, tc := range []struct {
		name   string
		shards int
		mask   uint64
	}{
		{"one-shard", 1, ^uint64(0)},
		{"sharded", 7, ^uint64(0)},
		{"colliding-3-bits", 1, 7},
		{"colliding-all", 1, 0},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newRegistry(tc.shards, grid, true)
				r.hashMask = tc.mask
				oracle := map[string]*oracleDevice{}
				var nextDev int32
				var busy int64 // the oracle's count of devices holding a task
				pool := []string{"", long + "a", long + "b"}
				for i := 0; i < 400; i++ {
					pool = append(pool, fmt.Sprintf("dev-%d", i))
				}
				score := func() float64 { return rng.Float64()*1.4 - 0.2 } // some out of range
				nowSec, day := int64(1000), 0

				for step := 0; step < 400; step++ {
					switch op := rng.Intn(10); {
					case op < 6: // a check-in batch
						n := 1 + rng.Intn(200)
						if rng.Intn(3) > 0 {
							n = 1 + rng.Intn(12)
						}
						cis := make([]CheckIn, n)
						for i := range cis {
							cis[i] = CheckIn{DeviceID: pool[rng.Intn(len(pool))], CPU: score(), Mem: score()}
						}
						sc := r.scratch(n)
						for i := range cis {
							r.mark(sc, i, cis[i].DeviceID)
						}
						r.lockMarked(sc, true)
						r.touch(sc)
						for i := range cis {
							ci := &cis[i]
							cpu, mem := device.Clamp01(ci.CPU), device.Clamp01(ci.Mem)
							s, err := r.admit(sc.shard[i], sc.hash[i], ci.DeviceID, cpu, mem, day, nowSec)
							od, known := oracle[ci.DeviceID]
							switch {
							case known && od.busy:
								od.lastSeenSec = nowSec
								if err != ErrDeviceBusy || s != nil {
									t.Fatalf("step %d item %d: busy device admitted: %v, %v", step, i, s, err)
								}
								continue
							case !known:
								od = &oracleDevice{dev: nextDev, lastTaskDay: -1}
								nextDev++
								oracle[ci.DeviceID] = od
							}
							od.cell = uint16(grid.CellOf(cpu, mem))
							od.lastSeenSec = nowSec
							if err != nil {
								t.Fatalf("step %d item %d: %v", step, i, err)
							}
							if int(od.lastTaskDay) == day {
								if s != nil {
									t.Fatalf("step %d item %d: admitted past the daily budget", step, i)
								}
								continue
							}
							if s == nil {
								t.Fatalf("step %d item %d: refused without cause", step, i)
							}
							if s.dev != od.dev || s.cell != od.cell || s.flags != slotUsed|slotBusy {
								t.Fatalf("step %d item %d: slot %+v, oracle %+v", step, i, *s, *od)
							}
							sc.slots[i] = s
							od.busy = true
						}
						// The handles are still good after every insert of the
						// batch: keep a third of the reservations as assignments.
						for i, s := range sc.slots {
							if s == nil {
								continue
							}
							od := oracle[cis[i].DeviceID]
							if rng.Intn(3) == 0 {
								s.lastTaskDay, od.lastTaskDay = int32(day), int32(day)
								r.busy.Add(1)
								busy++
							} else {
								s.flags &^= slotBusy
								od.busy = false
							}
						}
						r.unlockMarked(sc)
					case op < 8: // a report batch
						for n := 1 + rng.Intn(20); n > 0; n-- {
							id := pool[rng.Intn(len(pool))]
							h := r.hash(id)
							sh := r.shardOf(h)
							sh.mu.Lock()
							s, _ := sh.find(h, id)
							od, known := oracle[id]
							if (s != nil) != known {
								t.Fatalf("step %d: find(%.20q) = %v, oracle knows it: %v", step, id, s, known)
							}
							if known && od.busy {
								if s.flags&slotBusy == 0 {
									t.Fatalf("step %d: %.20q lost its busy flag", step, id)
								}
								s.flags &^= slotBusy
								od.busy = false
								r.busy.Add(-1)
								busy--
							}
							sh.mu.Unlock()
						}
					case op < 9: // time passes
						nowSec += int64(rng.Intn(50))
						if rng.Intn(4) == 0 {
							day++
						}
					default: // a TTL sweep over every shard, busy devices included
						cutoff := nowSec - int64(rng.Intn(100))
						want := 0
						for id, od := range oracle {
							if od.lastSeenSec < cutoff {
								if od.busy {
									busy--
								}
								delete(oracle, id)
								want++
							}
						}
						got := 0
						for i := 0; i < tc.shards; i++ {
							got += r.sweep(cutoff)
						}
						if got != want {
							t.Fatalf("step %d: sweep evicted %d, oracle %d", step, got, want)
						}
					}
					st := r.stats()
					if st.Live != int64(len(oracle)) || r.busy.Load() != busy {
						t.Fatalf("step %d: live %d busy %d, oracle %d and %d", step, st.Live, r.busy.Load(), len(oracle), busy)
					}
					if (st.Live+st.Tombstones)*8 > st.Slots*7 {
						t.Fatalf("step %d: load bound broken: %+v", step, st)
					}
					if step%25 == 0 || step == 399 {
						seen := 0
						for id, s := range r.all() {
							od, ok := oracle[id]
							if !ok {
								t.Fatalf("step %d: registry holds %.20q, oracle does not", step, id)
							}
							if s.dev != od.dev || s.cell != od.cell ||
								s.lastSeenSec != od.lastSeenSec || s.lastTaskDay != od.lastTaskDay ||
								(s.flags&slotBusy != 0) != od.busy {
								t.Fatalf("step %d: %.20q: slot %+v, oracle %+v", step, id, *s, *od)
							}
							seen++
						}
						if seen != len(oracle) {
							t.Fatalf("step %d: registry holds %d devices, oracle %d", step, seen, len(oracle))
						}
					}
				}
				if st := r.stats(); st.Rehashes == 0 || r.evictions.Load() == 0 {
					t.Errorf("the sequence never rebuilt a table or evicted a device: %+v", st)
				}
			})
		}
	}
}

// TestRegistryTombstoneReuse pins the eviction mechanics on one probe run:
// an evicted device leaves a tombstone that keeps the run intact, the next
// insert along the run takes it over without a rebuild, and a rebuild
// reclaims what is left together with the evicted IDs' arena bytes.
func TestRegistryTombstoneReuse(t *testing.T) {
	r := newRegistry(1, device.NewGrid(device.Categories()), false)
	r.hashMask = 0 // one probe run
	sh := &r.shards[0]
	admit := func(id string, sec int64) {
		t.Helper()
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.reserve(1)
		s, err := r.admit(sh, r.hash(id), id, 0.5, 0.5, 0, sec)
		if err != nil || s == nil {
			t.Fatalf("admit %q: %v, %v", id, s, err)
		}
		s.flags &^= slotBusy
	}
	known := func(id string) bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		s, _ := sh.find(r.hash(id), id)
		return s != nil
	}
	admit("a", 10)
	admit("bb", 1) // stale
	admit("c", 10)
	if n := r.sweep(5); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if st := r.stats(); st.Live != 2 || st.Tombstones != 1 || st.IDBytes != 4 {
		t.Fatalf("after eviction: %+v", st)
	}
	if known("bb") || !known("a") || !known("c") {
		t.Fatal("eviction broke the probe run")
	}
	rebuilds := r.stats().Rehashes
	admit("d", 10)
	if st := r.stats(); st.Live != 3 || st.Tombstones != 0 || st.Rehashes != rebuilds {
		t.Fatalf("the insert did not reuse the tombstone: %+v", st)
	}
	// Evict everything but "a": evicted IDs are now most of the arena, so the
	// next reserve compacts it.
	admit("a", 20)
	if n := r.sweep(15); n != 2 {
		t.Fatalf("sweep evicted %d, want 2", n)
	}
	admit("e", 20)
	if st := r.stats(); st.Live != 2 || st.Tombstones != 0 || st.IDBytes != 2 || st.Rehashes != rebuilds+1 {
		t.Fatalf("after compaction: %+v", st)
	}
	if !known("a") || !known("e") || known("c") || known("d") {
		t.Fatal("compaction lost or resurrected a device")
	}
}

// TestBatchOutgrowsItsTables runs one batch of 5,000 new devices against
// 8-slot tables with every device assigned: the core works on slot handles
// taken before most of the batch's inserts, so the room for all of them must
// have been made before the first.
func TestBatchOutgrowsItsTables(t *testing.T) {
	for _, shards := range []int{1, 3} {
		m := NewManager(Config{Shards: shards, Clock: newFakeClock().now})
		const n = 5000
		if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: n, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
		cis := make([]CheckIn, n)
		for i := range cis {
			cis[i] = CheckIn{DeviceID: fmt.Sprintf("grow-%d", i), CPU: 0.6, Mem: 0.6}
		}
		for i, res := range m.CheckInBatch(cis) {
			if res.Error != "" || !res.Assigned {
				t.Fatalf("shards=%d item %d: %+v", shards, i, res)
			}
		}
		devs := map[int32]bool{}
		for id, s := range m.reg.all() {
			if s.flags != slotUsed|slotBusy || s.lastTaskDay != 0 || devs[s.dev] {
				t.Fatalf("shards=%d %s: slot %+v", shards, id, *s)
			}
			devs[s.dev] = true
		}
		mt := m.MetricsSnapshot()
		if len(devs) != n || mt.KnownDevices != n || mt.BusyDevices != n || mt.RegistryRehashes == 0 {
			t.Errorf("shards=%d: %d devices, metrics %+v", shards, len(devs), mt)
		}
	}
}

// TestWarmSurplusAdmitAllocatesNothing pins the warm path's allocation
// count: admitting a known device and probing the plan snapshot for it
// allocate nothing (the device view stays on the stack).
func TestWarmSurplusAdmitAllocatesNothing(t *testing.T) {
	m := NewManager(Config{DisableDailyBudget: true})
	cis := make([]CheckIn, 64)
	for i := range cis {
		cis[i] = CheckIn{DeviceID: fmt.Sprintf("warm-%d", i), CPU: 0.5, Mem: 0.5}
	}
	m.refreshPlan() // publish a plan snapshot: no jobs, so every device is surplus
	m.CheckInBatch(cis)
	ci := &cis[0]
	h := m.reg.hash(ci.DeviceID)
	sh := m.reg.shardOf(h)
	now := m.now()
	idle := true
	if got := testing.AllocsPerRun(200, func() {
		sh.mu.Lock()
		sh.reserve(1)
		s, err := m.reg.admit(sh, h, ci.DeviceID, ci.CPU, ci.Mem, now.DayIndex(), 0)
		idle = idle && err == nil && s != nil && m.snapshotSaysIdle(s, ci.CPU, ci.Mem, now)
		if s != nil {
			s.flags &^= slotBusy
		}
		sh.mu.Unlock()
	}); got != 0 {
		t.Errorf("warm admit + snapshot probe: %v allocs, want 0", got)
	}
	if !idle {
		t.Error("the warm device was not admitted as surplus")
	}
}

// TestRegistryConcurrentMixedBatches is the registry's -race test: workers
// drive overlapping check-in and report batches over a shared ID pool (so
// reservations collide and tables grow under load) while a ticker advances
// the clock past the TTL and sweeps, evicting idle and busy devices under
// the batches' feet. Afterwards the gauges must match a walk of the tables.
func TestRegistryConcurrentMixedBatches(t *testing.T) {
	var sec atomic.Int64
	clock := func() time.Time { return time.Unix(1_700_000_000+sec.Load(), 0) }
	m := NewManager(Config{Shards: 4, DeviceTTL: 3 * time.Second, Clock: clock, DisableDailyBudget: true})
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 1 << 30, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	const workers, rounds, batch = 8, 150, 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			cis := make([]CheckIn, batch)
			for r := 0; r < rounds; r++ {
				for i := range cis {
					id := fmt.Sprintf("shared-%d", rng.Intn(600))
					if i%8 == 0 {
						id = fmt.Sprintf("own-%d-%d-%d", w, r, i) // always a cold insert
					}
					cis[i] = CheckIn{DeviceID: id, CPU: rng.Float64(), Mem: rng.Float64()}
				}
				reps := []Report{{DeviceID: "never-registered", JobID: 0, OK: true}}
				for i, res := range m.CheckInBatch(cis) {
					if res.Error != "" && res.Error != ErrDeviceBusy.Error() {
						t.Errorf("check-in: %s", res.Error)
					}
					if res.Assigned && rng.Intn(4) > 0 { // a quarter never report and stay busy
						reps = append(reps, Report{DeviceID: cis[i].DeviceID, JobID: res.JobID, OK: true, DurationSeconds: 1})
					}
				}
				for i, res := range m.ReportBatch(reps) {
					// A device may have been evicted between its assignment
					// and its report; nothing else may fail.
					if res.Error != "" && res.Error != ErrUnknownDevice.Error() {
						t.Errorf("report %d: %s", i, res.Error)
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sec.Add(1)
			m.Tick()
			_ = m.MetricsSnapshot()
		}
	}()
	wg.Wait()
	close(done)
	ticker.Wait()

	live, busy := 0, 0
	devs := map[int32]bool{}
	for id, s := range m.reg.all() {
		live++
		if s.flags&slotBusy != 0 {
			busy++
		}
		if devs[s.dev] {
			t.Errorf("%s shares device number %d", id, s.dev)
		}
		devs[s.dev] = true
	}
	mt := m.MetricsSnapshot()
	if mt.KnownDevices != int64(live) || mt.BusyDevices != int64(busy) {
		t.Errorf("gauges: known %d busy %d; tables hold %d and %d", mt.KnownDevices, mt.BusyDevices, live, busy)
	}
	if mt.DevicesEvicted == 0 || mt.RegistryRehashes == 0 {
		t.Errorf("the run never evicted or rebuilt: %+v", mt)
	}
	if (mt.RegistryLive+mt.RegistryTombstones)*8 > mt.RegistrySlots*7 {
		t.Errorf("load bound broken: %+v", mt)
	}
}

// TestRegistryBytesPerDevice gates the registry's footprint: a 100,000-device
// fleet of cold inserts on the default shards costs at most 56 allocated
// bytes per device, which is 32-byte slots in tables run at 7/8 load, plus
// the ID arenas. registry_bytes is what the daemon exports.
func TestRegistryBytesPerDevice(t *testing.T) {
	const fleet, batch = 100_000, 64
	m := NewManager(Config{DisableDailyBudget: true})
	cis := make([]CheckIn, batch)
	for off := 0; off < fleet; off += batch {
		cis = cis[:min(batch, fleet-off)]
		for i := range cis {
			cis[i] = CheckIn{DeviceID: fmt.Sprintf("dev-%06d", off+i), CPU: 0.5, Mem: 0.5}
		}
		m.CheckInBatch(cis)
	}
	mt := m.MetricsSnapshot()
	if mt.RegistryLive != fleet {
		t.Fatalf("registry_live = %d, want %d", mt.RegistryLive, fleet)
	}
	perDevice := float64(mt.RegistryBytes) / float64(mt.RegistryLive)
	t.Logf("registry_bytes %d: %.1f B/device", mt.RegistryBytes, perDevice)
	if perDevice > 56 {
		t.Errorf("%.1f registry bytes per device, want at most 56", perDevice)
	}
	if held := mt.RegistrySlots*int64(unsafe.Sizeof(slot{})) + mt.RegistryIDBytes; mt.RegistryBytes < held {
		t.Errorf("registry_bytes %d is less than the tables and IDs it holds, %d", mt.RegistryBytes, held)
	}
}

// TestCheckInMovesCell checks one device in twice, with scores on either side
// of Compute-Rich's CPU cut: the second check-in must move the cached cell,
// so its supply is counted in the new cell and the snapshot probe, which
// reads the cell, sends it to the Compute-Rich job instead of answering it
// as surplus.
func TestCheckInMovesCell(t *testing.T) {
	m := NewManager(Config{Clock: newFakeClock().now})
	if _, err := m.RegisterJob(JobSpec{Category: device.ComputeRich.Name, DemandPerRound: 1, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	grid := m.env.Grid
	low, high := grid.CellOf(0.4, 0.6), grid.CellOf(0.6, 0.6)
	if low == high {
		t.Fatal("the scores share a cell")
	}
	a, err := checkInOne(m, CheckIn{DeviceID: "mover", CPU: 0.4, Mem: 0.6})
	if err != nil || a.Assigned {
		t.Fatalf("below the cut: %+v, %v", a, err)
	}
	if got := m.pendingSupply[low].Load(); got != 1 || m.MetricsSnapshot().LockFreeCheckIns != 1 {
		t.Fatalf("below the cut: supply %d in cell %d, metrics %+v", got, low, m.MetricsSnapshot())
	}
	a, err = checkInOne(m, CheckIn{DeviceID: "mover", CPU: 0.6, Mem: 0.6})
	if err != nil || !a.Assigned {
		t.Fatalf("above the cut: %+v, %v (the probe read a stale cell)", a, err)
	}
	if got := m.MetricsSnapshot().LockFreeCheckIns; got != 1 {
		t.Errorf("above the cut: %d lock-free check-ins, want 1", got)
	}
	for id, s := range m.reg.all() {
		if device.CellID(s.cell) != high {
			t.Errorf("%s: cached cell %d, want %d", id, s.cell, high)
		}
	}
	m.mu.Lock()
	m.drainSupplyLocked(m.now())
	at := m.now().Add(simtime.Minute) // a rate needs covered time
	rates := make([]float64, m.env.Grid.NumCells())
	for c := range rates {
		rates[c] = m.env.DB.RatePerHour(device.CellID(c), at)
	}
	m.mu.Unlock()
	for c, r := range rates {
		if want := c == int(low) || c == int(high); (r > 0) != want {
			t.Errorf("cell %d: supply rate %v, want one check-in: %v", c, r, want)
		}
	}
}

// TestCheckInMovesCellAfterService is TestCheckInMovesCell for a device the
// scheduler has already served: a General job takes it at (0.05, 0.05), it
// reports, and it checks in again at (0.99, 0.99) while a High-Perf job
// waits. The probe and Assign must both place it in the new cell, so it gets
// the High-Perf job.
func TestCheckInMovesCellAfterService(t *testing.T) {
	m := NewManager(Config{Clock: newFakeClock().now, DisableDailyBudget: true})
	gen, err := m.RegisterJob(JobSpec{Category: device.General.Name, DemandPerRound: 1, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := m.RegisterJob(JobSpec{Category: device.HighPerf.Name, DemandPerRound: 1, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := checkInOne(m, CheckIn{DeviceID: "mover", CPU: 0.05, Mem: 0.05})
	if err != nil || !a.Assigned || a.JobID != gen.ID {
		t.Fatalf("low check-in: %+v, %v, want General job %d", a, err, gen.ID)
	}
	if err := reportOne(m, Report{DeviceID: "mover", JobID: gen.ID, OK: true, DurationSeconds: 1}); err != nil {
		t.Fatal(err)
	}
	a, err = checkInOne(m, CheckIn{DeviceID: "mover", CPU: 0.99, Mem: 0.99})
	if err != nil || !a.Assigned || a.JobID != hp.ID {
		t.Fatalf("high check-in: %+v, %v, want High-Perf job %d (Assign read a stale cell)", a, err, hp.ID)
	}
}

// TestRegistryArenaLimit narrows a shard's arena to 30 bytes: the insert that
// would end past it is refused with ErrRegistryFull, and the registry is left
// as it was, the tombstone the insert would have reused included, with every
// device still resolvable.
func TestRegistryArenaLimit(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(Config{Shards: 1, Clock: clk.now})
	m.reg.arenaMax = 30
	// One probe run, so the refused insert passes the tombstone; the six IDs
	// fill the arena.
	m.reg.hashMask = 0
	ids := []string{"dev-0", "dev-1", "dev-2", "dev-3", "dev-4", "dev-5"}
	checkIn := func(ids ...string) []CheckInResult {
		cis := make([]CheckIn, len(ids))
		for i, id := range ids {
			cis[i] = CheckIn{DeviceID: id, CPU: 0.5, Mem: 0.5}
		}
		return m.CheckInBatch(cis)
	}
	for i, res := range checkIn(ids...) {
		if res.Error != "" {
			t.Fatalf("%s: %s", ids[i], res.Error)
		}
	}
	clk.advance(time.Minute)
	checkIn(ids[1:]...)
	if n := m.reg.sweep(clk.now().Unix()); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	before := m.reg.stats()
	if before.Tombstones != 1 || before.IDBytes != 30 {
		t.Fatalf("before: %+v", before)
	}
	res := checkIn("dev-1", "dev-6", "dev-2")
	if res[1].Error != ErrRegistryFull.Error() {
		t.Errorf("the crossing insert: %+v, want %q", res[1], ErrRegistryFull)
	}
	if res[0].Error != "" || res[2].Error != "" {
		t.Errorf("known devices beside it: %+v", res)
	}
	if after := m.reg.stats(); after != before {
		t.Errorf("the refused insert changed the registry: %+v, was %+v", after, before)
	}
	sh := &m.reg.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, id := range append(ids[1:], "dev-0", "dev-6") {
		s, _ := sh.find(m.reg.hash(id), id)
		if want := id != "dev-0" && id != "dev-6"; (s != nil) != want {
			t.Errorf("find(%s) = %v, want registered: %v", id, s, want)
		}
	}
}

// TestNewManagerRefusesOversizedGrid: 256 categories with distinct cuts on
// both axes make a 257 x 257 grid, more cells than a slot's cell field holds.
func TestNewManagerRefusesOversizedGrid(t *testing.T) {
	cats := make([]device.Requirement, 256)
	for i := range cats {
		cut := float64(i+1) / 1000
		cats[i] = device.Requirement{Name: fmt.Sprintf("cat-%d", i), MinCPU: cut, MinMem: cut}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewManager accepted a 66,049-cell grid")
		}
	}()
	NewManager(Config{Categories: cats})
}

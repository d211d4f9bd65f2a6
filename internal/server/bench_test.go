package server

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"venn/internal/device"
)

// newBenchManager returns a manager with one General job whose demand is
// large enough that it never fills during the benchmark, so every check-in
// walks the full admission + scheduling path.
func newBenchManager(b *testing.B, shards int) *Manager {
	b.Helper()
	m := NewManager(Config{Shards: shards})
	if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 1 << 30, Rounds: 1}); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkManagerCheckInSingleLock is the seed-equivalent serving path:
// one lock stripe, one check-in (a batch of one) per call, concurrent
// callers.
func BenchmarkManagerCheckInSingleLock(b *testing.B) {
	benchmarkCheckInSingle(b, 1)
}

// BenchmarkManagerCheckInSharded is the same per-call path on the sharded
// manager.
func BenchmarkManagerCheckInSharded(b *testing.B) {
	benchmarkCheckInSingle(b, defaultShards)
}

func benchmarkCheckInSingle(b *testing.B, shards int) {
	m := newBenchManager(b, shards)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			_, err := checkInOne(m, CheckIn{
				DeviceID: fmt.Sprintf("bench-%d", n),
				CPU:      float64(n%10) / 10,
				Mem:      float64(n%7) / 7,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkManagerCheckInBatchSharded measures the batched entry point:
// each op is one 64-item batch under a single core-lock acquisition. The
// custom checkins/s metric is directly comparable with the single-call
// benchmarks' ops/s.
func BenchmarkManagerCheckInBatchSharded(b *testing.B) {
	const batch = 64
	m := newBenchManager(b, defaultShards)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cis := make([]CheckIn, batch)
		for pb.Next() {
			for i := range cis {
				n := seq.Add(1)
				cis[i] = CheckIn{
					DeviceID: fmt.Sprintf("bench-%d", n),
					CPU:      float64(n%10) / 10,
					Mem:      float64(n%7) / 7,
				}
			}
			for _, r := range m.CheckInBatch(cis) {
				if r.Error != "" {
					b.Fatal(r.Error)
				}
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*batch/sec, "checkins/s")
	}
}

// BenchmarkCheckInContended measures the demand-heavy regime: an
// inexhaustible General job plus a lifted daily budget means every check-in
// is assignment-eligible and commits through the scheduler core, and every
// assignment is reported back so the same devices stay assignable. Each
// batch, check-ins and reports alike, commits in one core section, so the
// batch size sets how many items share one hold of the core mutex; at -cpu 2
// and up the parallel callers contend for it.
func BenchmarkCheckInContended(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			m := NewManager(Config{DisableDailyBudget: true})
			if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: 1 << 30, Rounds: 1}); err != nil {
				b.Fatal(err)
			}
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1)
				cis := make([]CheckIn, batch)
				for i := range cis {
					cis[i] = CheckIn{
						DeviceID: fmt.Sprintf("w%d-d%d", w, i),
						CPU:      0.5 + float64(i%5)/10,
						Mem:      0.5 + float64(i%4)/10,
					}
				}
				reps := make([]Report, 0, batch)
				for pb.Next() {
					reps = reps[:0]
					for i, r := range m.CheckInBatch(cis) {
						if r.Error != "" {
							b.Fatal(r.Error)
						}
						if r.Assigned {
							reps = append(reps, Report{
								DeviceID: cis[i].DeviceID, JobID: r.JobID,
								OK: true, DurationSeconds: 1,
							})
						}
					}
					if len(reps) > 0 {
						for _, rr := range m.ReportBatch(reps) {
							if rr.Error != "" {
								b.Fatal(rr.Error)
							}
						}
					}
				}
			})
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N*batch)/sec, "checkins/s")
			}
		})
	}
}

// fleetCheckIns returns one check-in per device of an n-device fleet, in a
// seeded shuffled order: the benchmarks below register the fleet in index
// order and then visit it in this one, so no layout gets locality from
// visiting devices in the order it allocated them.
func fleetCheckIns(n int) (inOrder, shuffled []CheckIn) {
	inOrder = make([]CheckIn, n)
	for i := range inOrder {
		inOrder[i] = CheckIn{DeviceID: fmt.Sprintf("device-%06d", i), CPU: float64(i%10) / 10, Mem: float64(i%7) / 7}
	}
	shuffled = append([]CheckIn(nil), inOrder...)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return inOrder, shuffled
}

// BenchmarkRegistryAdmit is the registry layer alone: one warm admit (hash,
// shard lock, probe, ID compare, cell revalidation, reserve and release) per
// op, at a fleet that fits the cache and at the benchmark's fleet, which does
// not. The gap between the two is what a registry cache miss costs. B/device
// is the registry's allocated bytes per registered device.
func BenchmarkRegistryAdmit(b *testing.B) {
	for _, fleet := range []int{2_000, 100_000} {
		b.Run(fmt.Sprintf("fleet=%dk", fleet/1000), func(b *testing.B) {
			r := newRegistry(defaultShards, device.NewGrid(device.Categories()), false)
			inOrder, cis := fleetCheckIns(fleet)
			admit := func(ci *CheckIn) {
				h := r.hash(ci.DeviceID)
				sh := &r.shards[r.shardIndex(h)]
				sh.mu.Lock()
				sh.reserve(1)
				s, err := r.admit(sh, h, ci.DeviceID, ci.CPU, ci.Mem, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				s.flags &^= slotBusy
				sh.mu.Unlock()
			}
			for i := range inOrder {
				admit(&inOrder[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i++ {
				admit(&cis[k])
				if k++; k == fleet {
					k = 0
				}
			}
			st := r.stats()
			b.ReportMetric(float64(st.Bytes)/float64(st.Live), "B/device")
		})
	}
}

// BenchmarkManagerCheckInBatchFleet100k is BenchmarkManagerCheckInBatchSharded
// at the benchmark's fleet size and on warm surplus traffic: each op is one
// 64-item batch of known devices answered from the plan snapshot. It is the
// standing number for the serving path's sensitivity to fleet size.
func BenchmarkManagerCheckInBatchFleet100k(b *testing.B) {
	const fleet, batch = 100_000, 64
	m := NewManager(Config{DisableDailyBudget: true})
	m.refreshPlan() // publish a plan snapshot: no jobs, so every check-in is surplus
	inOrder, cis := fleetCheckIns(fleet)
	for off := 0; off < fleet; off += batch {
		m.CheckInBatch(inOrder[off:min(off+batch, fleet)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, off := 0, 0; i < b.N; i++ {
		if off+batch > fleet {
			off = 0
		}
		for _, r := range m.CheckInBatch(cis[off : off+batch]) {
			if r.Error != "" {
				b.Fatal(r.Error)
			}
		}
		off += batch
	}
	b.StopTimer()
	if got := m.MetricsSnapshot().LockFreeCheckIns; got < int64(b.N)*batch {
		b.Fatalf("%d lock-free check-ins for %d batches: not the surplus path", got, b.N)
	}
}

// BenchmarkDemandCommit times the demand commit path one job at a time:
// register a job of demand 64, check in a 64-device batch, all of which it
// is assigned, then send the batch's reports, which finish the job. It is
// the core half of bench/'s demand-stream workload: Algorithm 2's tier
// decision, the assignments, the in-flight table and the report apply.
func BenchmarkDemandCommit(b *testing.B) {
	const batch = 64
	m := NewManager(Config{DisableDailyBudget: true, ObsSampleEvery: -1})
	cis := make([]CheckIn, batch)
	for i := range cis {
		cis[i] = CheckIn{DeviceID: fmt.Sprintf("commit-%03d", i), CPU: 0.25 + float64(i)/256, Mem: 0.5}
	}
	reps := make([]Report, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RegisterJob(JobSpec{Category: "General", DemandPerRound: batch, Rounds: 1}); err != nil {
			b.Fatal(err)
		}
		for k, r := range m.CheckInBatch(cis) {
			if !r.Assigned {
				b.Fatalf("device %d not assigned: %+v", k, r)
			}
			reps[k] = Report{DeviceID: cis[k].DeviceID, JobID: r.JobID, OK: true, DurationSeconds: 30}
		}
		for _, r := range m.ReportBatch(reps) {
			if r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	}
}

// Micro-benchmarks on the scheduler's hot paths. The paper's tables and
// figures are regenerated by `go run ./cmd/vennbench`, which runs every
// scheduler arm on identical inputs; these benchmarks time the pieces those
// runs spend their time in.
package venn

import (
	"testing"

	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/eval"
	"venn/internal/fl"
	"venn/internal/job"
	"venn/internal/sched"
	"venn/internal/sim"
	"venn/internal/stats"
	"venn/internal/trace"
	"venn/internal/workload"
)

// --- Figure 10: scheduler overhead (the paper's scalability claim) ---

func BenchmarkFigure10Plan1000Jobs(b *testing.B)  { benchPlan(b, 1000, 20) }
func BenchmarkFigure10Plan100Groups(b *testing.B) { benchPlan(b, 500, 100) }

func benchPlan(b *testing.B, jobs, groups int) {
	rng := stats.NewRNG(int64(jobs + groups))
	reqs := make([]device.Requirement, groups)
	for i := range reqs {
		reqs[i] = device.Requirement{MinCPU: float64(i%10) / 10, MinMem: float64(i/10%10) / 10}
	}
	grid := device.NewGrid(reqs)
	rates := make([]float64, grid.NumCells())
	for c := range rates {
		rates[c] = rng.Uniform(1, 100)
	}
	states := make([]*core.GroupState, groups)
	for i := range states {
		states[i] = &core.GroupState{
			Region: grid.RegionOf(reqs[i]),
			Supply: rng.Uniform(10, 1000),
			Queue:  float64(jobs / groups),
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ComputeAllocation(states, rates)
		core.BuildCellPlan(states, grid.NumCells())
	}
}

// --- Ablation benchmarks on hot paths (DESIGN.md §6) ---

// BenchmarkIRSPlanSmall measures a single Algorithm 1 invocation at the
// default evaluation size (4 groups).
func BenchmarkIRSPlanSmall(b *testing.B) { benchPlan(b, 50, 4) }

// BenchmarkAssignHotPath measures per-device assignment latency for each
// scheduler with 40 open requests.
func BenchmarkAssignHotPath(b *testing.B) {
	for _, mk := range []struct {
		name string
		new  func() sim.Scheduler
	}{
		{"FIFO", func() sim.Scheduler { return sched.NewFIFO() }},
		{"SRSF", func() sim.Scheduler { return sched.NewSRSF() }},
		{"Venn", func() sim.Scheduler { return core.NewDefault() }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			s := mk.new()
			grid := device.NewGrid(device.Categories())
			env := &sim.Env{
				Grid:          grid,
				CellPriorRate: []float64{40, 20, 20, 10},
				RNG:           stats.NewRNG(1),
				Jobs:          map[job.ID]*job.Job{},
				IdlePerCell:   make([]int, grid.NumCells()),
			}
			s.Bind(env)
			cats := device.Categories()
			for i := 0; i < 40; i++ {
				j := job.New(job.ID(i), cats[i%4], 1000, 3, 0)
				j.Start(0)
				env.Jobs[j.ID] = j
				s.OnJobArrival(j, 0)
				s.OnRequest(j, 0)
			}
			dev := device.New(0, 0.8, 0.8)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s.Assign(dev, 1) == nil {
					b.Fatal("no assignment")
				}
			}
		})
	}
}

// BenchmarkEngineEvents measures raw simulation throughput (events/op) on a
// mid-size run.
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fleet := trace.GenerateFleet(trace.FleetConfig{NumDevices: 1000, Seed: int64(i)})
		wl := workload.Generate(workload.Config{NumJobs: 10, Seed: int64(i), MaxRounds: 6, MaxDemand: 60})
		eng, err := sim.NewEngine(sim.Config{
			Fleet: fleet, Jobs: wl.Jobs, Scheduler: core.NewDefault(), Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		res := eng.Run()
		if res.Assignments == 0 {
			b.Fatal("no work done")
		}
	}
}

// BenchmarkFLRound measures one FedAvg round at experiment size.
func BenchmarkFLRound(b *testing.B) {
	cfg := eval.DefaultFLConfig(eval.ScaleQuick, 1)
	data := cfg.Data
	data.Clients = 400
	ds := fl.GenerateDataset(data)
	tr := fl.NewTrainer(ds, cfg.Train)
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := rng.Perm(len(ds.Shards))[:cfg.DemandPerRound]
		tr.RunRound(parts)
	}
}

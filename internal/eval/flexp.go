package eval

import (
	"fmt"
	"sort"
	"strings"

	"venn/internal/device"
	"venn/internal/fl"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
)

// FLConfig sizes the federated-learning experiments.
type FLConfig struct {
	Devices        int
	Rounds         int
	DemandPerRound int
	Horizon        simtime.Duration
	Data           fl.DataConfig
	Train          fl.TrainConfig
	Seed           int64
}

// DefaultFLConfig returns the FL experiment sizing for a scale.
func DefaultFLConfig(scale Scale, seed int64) FLConfig {
	cfg := FLConfig{
		Devices:        2000,
		Rounds:         15,
		DemandPerRound: 30,
		Horizon:        16 * simtime.Day,
		Seed:           seed,
		Data: fl.DataConfig{
			Classes:          16,
			Features:         24,
			SamplesPerClient: 40,
			Alpha:            0.1, // strongly non-IID: ~1-2 labels/client
			NoiseStd:         2.0,
			Seed:             seed + 11,
		},
		Train: fl.TrainConfig{LocalEpochs: 2, LR: 0.05, Seed: seed + 13},
	}
	if scale == ScaleQuick {
		cfg.Devices = 800
		cfg.Rounds = 10
		cfg.DemandPerRound = 20
		cfg.Data.SamplesPerClient = 30
		cfg.Data.Features = 16
	}
	if scale == ScaleFull {
		cfg.Devices = 5000
		cfg.Rounds = 40
		cfg.DemandPerRound = 60
	}
	return cfg
}

// --- Figure 4: impact of resource contention on round-to-accuracy ---

// Figure4Result holds, per concurrent-job count, the average test-accuracy
// curve over rounds when the device pool is evenly partitioned per job.
type Figure4Result struct {
	JobCounts []int
	// Curves[k][r] is the average test accuracy after round r+1 with k
	// concurrent jobs.
	Curves map[int][]float64
}

// Figure4 reproduces the contention motivation experiment: the device pool
// is evenly partitioned among k jobs, so with more jobs each job sees fewer
// distinct participants per round and converges slower per round.
func Figure4(scale Scale) (*Figure4Result, error) {
	cfg := DefaultFLConfig(scale, 404)
	res := &Figure4Result{JobCounts: []int{1, 5, 10, 20}, Curves: map[int][]float64{}}
	if scale == ScaleQuick {
		res.JobCounts = []int{1, 5, 20}
	}
	for _, k := range res.JobCounts {
		curve, err := partitionedAccuracy(cfg, k)
		if err != nil {
			return nil, err
		}
		res.Curves[k] = curve
	}
	return res, nil
}

// partitionedAccuracy runs single-job simulations on 1/k fleet partitions
// and averages the per-round accuracy across (up to 3 sampled) jobs.
func partitionedAccuracy(cfg FLConfig, k int) ([]float64, error) {
	fleetCfg := trace.FleetConfig{
		NumDevices: cfg.Devices,
		Horizon:    cfg.Horizon,
		Seed:       cfg.Seed,
	}
	full := trace.GenerateFleet(fleetCfg)

	sampleJobs := k
	if sampleJobs > 3 {
		sampleJobs = 3
	}
	sum := make([]float64, cfg.Rounds)
	cnt := make([]int, cfg.Rounds)
	for p := 0; p < sampleJobs; p++ {
		sub := partitionFleet(full, k, p)
		ds := fl.GenerateDataset(withClients(cfg.Data, len(sub.Devices)))
		trainer := fl.NewTrainer(ds, cfg.Train)

		j := job.New(0, device.General, cfg.DemandPerRound, cfg.Rounds, 0)
		observer := func(jb *job.Job, round int, parts []device.ID, now simtime.Time) {
			ids := make([]int, len(parts))
			for i, id := range parts {
				ids[i] = int(id)
			}
			trainer.RunRound(ids)
		}
		eng, err := sim.NewEngine(sim.Config{
			Fleet:     sub,
			Jobs:      []*job.Job{j},
			Scheduler: newRandomBaseline(),
			Seed:      cfg.Seed + int64(p),
			Observer:  observer,
		})
		if err != nil {
			return nil, err
		}
		eng.Run()
		for r, h := range trainer.History {
			if r < cfg.Rounds {
				sum[r] += h.TestAccuracy
				cnt[r]++
			}
		}
	}
	curve := make([]float64, 0, cfg.Rounds)
	for r := 0; r < cfg.Rounds; r++ {
		if cnt[r] == 0 {
			break
		}
		curve = append(curve, sum[r]/float64(cnt[r]))
	}
	return curve, nil
}

// withClients pins the dataset's client count to the partition size so each
// device maps to a unique shard.
func withClients(d fl.DataConfig, clients int) fl.DataConfig {
	d.Clients = clients
	return d
}

// partitionFleet extracts partition p of k (round-robin by device index),
// renumbering devices densely so device IDs map onto dataset shards.
func partitionFleet(f *trace.Fleet, k, p int) *trace.Fleet {
	sub := &trace.Fleet{Horizon: f.Horizon}
	for i := range f.Devices {
		if i%k != p {
			continue
		}
		d := f.Devices[i]
		nd := device.New(device.ID(len(sub.Devices)), d.CPU, d.Mem)
		sub.Devices = append(sub.Devices, nd)
		sub.Intervals = append(sub.Intervals, f.Intervals[i])
	}
	return sub
}

// Render prints the accuracy curves.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: round-to-accuracy under even pool partitioning\n")
	b.WriteString("round")
	for _, k := range r.JobCounts {
		fmt.Fprintf(&b, "  %7s", fmt.Sprintf("%d job(s)", k))
	}
	b.WriteByte('\n')
	maxLen := 0
	for _, c := range r.Curves {
		if len(c) > maxLen {
			maxLen = len(c)
		}
	}
	for i := 0; i < maxLen; i++ {
		fmt.Fprintf(&b, "%5d", i+1)
		for _, k := range r.JobCounts {
			c := r.Curves[k]
			if i < len(c) {
				fmt.Fprintf(&b, "  %7.3f", c[i])
			} else {
				fmt.Fprintf(&b, "  %7s", "-")
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("(paper: more concurrent jobs -> slower round-to-accuracy)\n")
	return b.String()
}

// --- Figure 9: accuracy over time per scheduler ---

// Figure9Result holds, per scheduler, the average-test-accuracy-vs-time
// series across jobs, plus final accuracies.
type Figure9Result struct {
	Schedulers []string
	// Times is the shared sampling grid in seconds.
	Times []float64
	// AvgAccuracy[scheduler][i] is the mean accuracy across jobs at
	// Times[i] (jobs contribute 0 before their first round).
	AvgAccuracy map[string][]float64
	// Final[scheduler] is the mean final accuracy across jobs.
	Final map[string]float64
	// TimeTo[scheduler] is when the average accuracy first reached the
	// target level (seconds; +Inf if never).
	TimeTo map[string]float64
	Target float64
}

// Figure9 reproduces the accuracy-vs-time comparison: several CL jobs train
// real (surrogate) models under each scheduler; Venn should converge sooner
// without hurting final accuracy.
func Figure9(scale Scale, numJobs int) (*Figure9Result, error) {
	cfg := DefaultFLConfig(scale, 909)
	if numJobs <= 0 {
		numJobs = 8
		if scale != ScaleQuick {
			numJobs = 20
		}
	}
	fleet := trace.GenerateFleet(trace.FleetConfig{
		NumDevices: cfg.Devices, Horizon: cfg.Horizon, Seed: cfg.Seed})
	ds := fl.GenerateDataset(withClients(cfg.Data, cfg.Devices))

	res := &Figure9Result{
		Schedulers:  []string{"FIFO", "SRSF", "Venn"},
		AvgAccuracy: map[string][]float64{},
		Final:       map[string]float64{},
		TimeTo:      map[string]float64{},
	}
	type point struct {
		t   float64
		acc float64
	}
	horizonSec := simtime.Duration(cfg.Horizon).Seconds()
	const gridN = 240
	res.Times = make([]float64, gridN)
	for i := range res.Times {
		res.Times[i] = horizonSec * float64(i+1) / gridN
	}

	for _, name := range res.Schedulers {
		factory := StandardSchedulers()[name]
		jobs := make([]*job.Job, numJobs)
		arrive := simtime.Time(0)
		arrRNG := stats.NewRNG(cfg.Seed + 77)
		cats := device.Categories()
		for i := range jobs {
			jobs[i] = job.New(job.ID(i), cats[i%len(cats)], cfg.DemandPerRound, cfg.Rounds, arrive)
			arrive = arrive.Add(simtime.Duration(arrRNG.Exp(float64(30 * simtime.Minute))))
		}
		trainers := make(map[job.ID]*fl.Trainer, numJobs)
		series := make(map[job.ID][]point, numJobs)
		for _, j := range jobs {
			trainers[j.ID] = fl.NewTrainer(ds, cfg.Train)
		}
		observer := func(jb *job.Job, round int, parts []device.ID, now simtime.Time) {
			ids := make([]int, len(parts))
			for i, id := range parts {
				ids[i] = int(id)
			}
			rr := trainers[jb.ID].RunRound(ids)
			series[jb.ID] = append(series[jb.ID], point{t: simtime.Duration(now).Seconds(), acc: rr.TestAccuracy})
		}
		fleet.Reset()
		eng, err := sim.NewEngine(sim.Config{
			Fleet:     fleet,
			Jobs:      jobs,
			Scheduler: factory(),
			Seed:      cfg.Seed + 1,
			Observer:  observer,
		})
		if err != nil {
			return nil, err
		}
		eng.Run()

		// Sample each job's step function on the shared grid.
		avg := make([]float64, gridN)
		for _, j := range jobs {
			pts := series[j.ID]
			sort.Slice(pts, func(a, b int) bool { return pts[a].t < pts[b].t })
			for i, t := range res.Times {
				acc := 0.0
				for _, p := range pts {
					if p.t <= t {
						acc = p.acc
					} else {
						break
					}
				}
				avg[i] += acc / float64(numJobs)
			}
		}
		res.AvgAccuracy[name] = avg

		finals := 0.0
		for _, tr := range trainers {
			finals += tr.FinalAccuracy()
		}
		res.Final[name] = finals / float64(numJobs)
	}

	// Time-to-target with an adaptive target every scheduler can reach:
	// 90% of the worst scheduler's final average accuracy.
	res.Target = 1.0
	for _, name := range res.Schedulers {
		if res.Final[name] < res.Target {
			res.Target = res.Final[name]
		}
	}
	res.Target *= 0.9
	for _, name := range res.Schedulers {
		res.TimeTo[name] = -1
		for i, a := range res.AvgAccuracy[name] {
			if a >= res.Target {
				res.TimeTo[name] = res.Times[i]
				break
			}
		}
	}
	return res, nil
}

// Render prints final accuracy and time-to-target per scheduler.
func (r *Figure9Result) Render() string {
	t := NewTable("Figure 9: accuracy over time per scheduler",
		"Scheduler", "Final avg accuracy", fmt.Sprintf("Time to %.0f%% avg accuracy", 100*r.Target))
	for _, name := range r.Schedulers {
		tt := "never"
		if r.TimeTo[name] >= 0 {
			tt = fmt.Sprintf("%.0fs", r.TimeTo[name])
		}
		t.AddRow(name, fmt.Sprintf("%.3f", r.Final[name]), tt)
	}
	t.Caption = "(paper: Venn converges sooner with unchanged final accuracy)"
	return t.Render()
}

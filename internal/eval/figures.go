package eval

import (
	"fmt"
	"strings"
	"time"

	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sched"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
	"venn/internal/workload"
)

// --- Figure 2a: diurnal device availability ---

// Figure2aResult is the fraction of the fleet online per hour.
type Figure2aResult struct {
	HourlyFraction []float64
}

// Figure2a regenerates the diurnal availability curve over 96 hours.
func Figure2a(devices int, seed int64) *Figure2aResult {
	cfg := trace.FleetConfig{NumDevices: devices, Horizon: 4 * simtime.Day, Seed: seed}
	fleet := trace.GenerateFleet(cfg)
	return &Figure2aResult{
		HourlyFraction: trace.OnlineFraction(fleet.Intervals, fleet.Horizon, simtime.Hour),
	}
}

// Render prints the curve as an hourly ASCII sparkline table.
func (r *Figure2aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 2a: diurnal device availability (fraction of fleet online per hour)\n")
	for h, f := range r.HourlyFraction {
		bars := int(f * 100)
		fmt.Fprintf(&b, "h%03d %5.1f%% %s\n", h, f*100, strings.Repeat("#", bars/2))
	}
	return b.String()
}

// PeakTroughRatio returns max/min online fraction (diurnal amplitude),
// skipping the warm-up and cool-down edges of the horizon.
func (r *Figure2aResult) PeakTroughRatio() float64 {
	if len(r.HourlyFraction) < 48 {
		return 0
	}
	interior := r.HourlyFraction[12 : len(r.HourlyFraction)-12]
	lo, hi := stats.Min(interior), stats.Max(interior)
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// --- Figure 8a: device eligibility strata ---

// Figure8aResult reports the fraction of the fleet in each requirement
// stratum.
type Figure8aResult struct {
	Fractions map[string]float64
}

// Figure8a regenerates the eligibility stratification of the device trace.
func Figure8a(devices int, seed int64) *Figure8aResult {
	fleet := trace.GenerateFleet(trace.FleetConfig{
		NumDevices: devices, Horizon: simtime.Day, Seed: seed})
	counts := fleet.CategoryCounts()
	out := &Figure8aResult{Fractions: map[string]float64{}}
	for name, n := range counts {
		out.Fractions[name] = float64(n) / float64(devices)
	}
	return out
}

// Render prints the stratum shares.
func (r *Figure8aResult) Render() string {
	t := NewTable("Figure 8a: device eligibility strata", "Category", "Eligible fraction")
	for _, name := range categoriesOrdered() {
		t.AddRow(name, fmt.Sprintf("%.1f%%", 100*r.Fractions[name]))
	}
	return t.Render()
}

// --- Figure 3: toy example ---

// Figure3Result compares schedulers on the paper's toy example: one
// Keyboard job (demand 3, all devices eligible) and two Emoji jobs (demand
// 4, half the devices eligible), devices checking in at a constant rate.
type Figure3Result struct {
	// AvgJCT in check-in time units, per scheduler.
	AvgJCT map[string]float64
}

// Figure3 runs the toy example. Devices check in one per minute,
// alternating between Emoji-eligible (High-Perf stratum here) and
// General-only; response time is negligible so JCT is scheduling-bound.
// Each scheduler is averaged over several seeds (the randomized baseline's
// job order varies run to run).
func Figure3() (*Figure3Result, error) {
	res := &Figure3Result{AvgJCT: map[string]float64{}}
	const seeds = 20
	names := []string{"Random", "SRSF", "Venn"}
	factories := pick(StandardSchedulers(), names...)
	jcts := make([]float64, len(names)*seeds)
	err := parallelEach(len(jcts), func(i int) error {
		factory := factories[names[i/seeds]]
		s := i % seeds
		fleet := toyFleet()
		keyboard := job.New(0, device.General, 3, 1, 0)
		emoji1 := job.New(1, device.HighPerf, 4, 1, 0)
		emoji2 := job.New(2, device.HighPerf, 4, 1, 0)
		eng, err := sim.NewEngine(sim.Config{
			Fleet:     fleet,
			Jobs:      []*job.Job{keyboard, emoji1, emoji2},
			Scheduler: factory(),
			Response:  sim.ResponseModel{Median: simtime.Millisecond, P95: 2 * simtime.Millisecond, DisableFailures: true},
			Horizon:   2 * simtime.Hour,
			Seed:      int64(40 + s),
		})
		if err != nil {
			return err
		}
		r := eng.Run()
		jcts[i] = stats.Mean(r.JCTSeconds()) / 60 // minutes = check-in units
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		res.AvgJCT[name] = stats.Mean(jcts[i*seeds : (i+1)*seeds])
	}
	return res, nil
}

// toyFleet builds 40 devices that check in one per minute, alternating
// between Emoji-eligible (high CPU and memory) and General-only.
func toyFleet() *trace.Fleet {
	horizon := 2 * simtime.Hour
	f := &trace.Fleet{Horizon: horizon}
	for i := 0; i < 40; i++ {
		var d *device.Device
		if i%2 == 0 {
			d = device.New(device.ID(i), 0.9, 0.9) // Emoji-eligible
		} else {
			d = device.New(device.ID(i), 0.2, 0.2) // General only
		}
		f.Devices = append(f.Devices, d)
		start := simtime.Time(i+1) * simtime.Time(simtime.Minute)
		f.Intervals = append(f.Intervals, []trace.Interval{{
			Start: start, End: simtime.Time(horizon),
		}})
	}
	return f
}

// Render prints per-scheduler toy JCTs.
func (r *Figure3Result) Render() string {
	t := NewTable("Figure 3: toy example average JCT (check-in time units)",
		"Scheduler", "Avg JCT")
	for _, name := range []string{"Random", "SRSF", "Venn"} {
		t.AddRow(name, fmt.Sprintf("%.1f", r.AvgJCT[name]))
	}
	t.Caption = "(paper: Random 12.0, SRSF 11.0, optimal 9.3)"
	return t.Render()
}

// --- Figure 5: JCT breakdown under random matching ---

// Figure5Result reports average scheduling delay and response time per
// attempt under random matching at two contention levels.
type Figure5Result struct {
	NumJobs       []int
	SchedDelaySec map[int]float64
	RespTimeSec   map[int]float64
}

// Figure5 reproduces the JCT breakdown (the motivation experiment): as the
// number of jobs grows, scheduling delay comes to dominate response time.
func Figure5(scale Scale) (*Figure5Result, error) {
	res := &Figure5Result{
		NumJobs:       []int{10, 20},
		SchedDelaySec: map[int]float64{},
		RespTimeSec:   map[int]float64{},
	}
	setups := make([]Setup, len(res.NumJobs))
	for i, n := range res.NumJobs {
		setups[i] = NewSetup(scale, int64(500+n))
		setups[i].Jobs.NumJobs = n
	}
	cmps, err := CompareMany(setups, func(int) map[string]SchedulerFactory {
		return pick(StandardSchedulers(), "Random")
	})
	if err != nil {
		return nil, err
	}
	for i, n := range res.NumJobs {
		r := cmps[i].Results["Random"]
		res.SchedDelaySec[n] = simtime.Duration(r.AvgSchedDelay).Seconds()
		res.RespTimeSec[n] = simtime.Duration(r.AvgResponseTime).Seconds()
	}
	return res, nil
}

// Render prints the breakdown.
func (r *Figure5Result) Render() string {
	t := NewTable("Figure 5: JCT breakdown per round under random matching",
		"#Jobs", "Avg sched delay (s)", "Avg response time (s)")
	for _, n := range r.NumJobs {
		t.AddRow(n, fmt.Sprintf("%.0f", r.SchedDelaySec[n]), fmt.Sprintf("%.0f", r.RespTimeSec[n]))
	}
	t.Caption = "(paper: scheduling delay dominates and grows with contention)"
	return t.Render()
}

// --- Figure 10: scheduler overhead ---

// Figure10Result reports the wall-clock latency of one Algorithm 1
// invocation at increasing job and group counts.
type Figure10Result struct {
	JobCounts   []int
	JobLatency  []time.Duration // at fixed 20 groups
	GroupCounts []int
	GrpLatency  []time.Duration // at fixed 500 jobs
}

// Figure10 benchmarks the IRS planner exactly as the paper's overhead
// experiment: emulated job groups at scale, measuring one scheduling
// trigger.
func Figure10() *Figure10Result {
	res := &Figure10Result{
		JobCounts:   []int{100, 250, 500, 750, 1000},
		GroupCounts: []int{20, 40, 60, 80, 100},
	}
	for _, m := range res.JobCounts {
		res.JobLatency = append(res.JobLatency, planLatency(m, 20))
	}
	for _, n := range res.GroupCounts {
		res.GrpLatency = append(res.GrpLatency, planLatency(500, n))
	}
	return res
}

// planLatency times one ComputeAllocation+BuildCellPlan over synthetic
// groups. Jobs influence the planner only through queue lengths, matching
// the paper's emulated-scale methodology.
func planLatency(jobs, groups int) time.Duration {
	rng := stats.NewRNG(int64(jobs*1000 + groups))
	reqs := make([]device.Requirement, groups)
	for i := range reqs {
		reqs[i] = device.Requirement{
			MinCPU: float64(i%10) / 10,
			MinMem: float64(i/10%10) / 10,
		}
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
	const iters = 20
	start := time.Now()
	for k := 0; k < iters; k++ {
		core.ComputeAllocation(states, rates)
		core.BuildCellPlan(states, grid.NumCells())
	}
	return time.Since(start) / iters
}

// Render prints the overhead table.
func (r *Figure10Result) Render() string {
	t := NewTable("Figure 10: scheduling-trigger latency",
		"#Jobs (20 groups)", "Latency", "#Groups (500 jobs)", "Latency")
	for i := range r.JobCounts {
		t.AddRow(r.JobCounts[i], r.JobLatency[i].String(),
			r.GroupCounts[i], r.GrpLatency[i].String())
	}
	t.Caption = "(paper: sub-millisecond at 1000 jobs / 100 groups)"
	return t.Render()
}

// --- Figure 11: component ablation ---

// Figure11Result reports speed-up over Random for FIFO, Venn without
// scheduling, Venn without matching, and full Venn on the Low and High
// workloads.
type Figure11Result struct {
	Workloads  []workload.Scenario
	Schedulers []string
	Speedup    map[workload.Scenario]map[string]float64
}

// AblationSchedulers returns the Figure 11 lineup: the standard lineup
// without SRSF, plus Venn without scheduling and Venn without matching.
func AblationSchedulers() map[string]SchedulerFactory {
	lineup := StandardSchedulers()
	delete(lineup, "SRSF")
	lineup["Venn-w/o-sched"] = func() sim.Scheduler { return newFIFOMatch() }
	lineup["Venn-w/o-match"] = func() sim.Scheduler {
		o := core.DefaultOptions()
		o.DisableMatching = true
		return core.New(o)
	}
	return lineup
}

// fifoMatch is Figure 11's "Venn w/o scheduling" arm: FIFO request order
// with Venn's tier-based matching still in force. The order is sched's FIFO
// queue. The Venn core behind it sees every lifecycle event, but only its
// tier filters (TierAccepts) and its response profiling are read; its own
// job order never is.
type fifoMatch struct {
	queue *sched.Baseline
	match *core.Venn
}

func newFIFOMatch() *fifoMatch {
	return &fifoMatch{queue: sched.NewFIFO(), match: core.NewDefault()}
}

func (p *fifoMatch) Name() string { return "Venn-w/o-sched" }

func (p *fifoMatch) Bind(env *sim.Env) {
	p.queue.Bind(env)
	p.match.Bind(env)
}

func (p *fifoMatch) OnJobArrival(j *job.Job, now simtime.Time) { p.match.OnJobArrival(j, now) }

func (p *fifoMatch) OnRequest(j *job.Job, now simtime.Time) {
	p.queue.OnRequest(j, now)
	p.match.OnRequest(j, now)
}

func (p *fifoMatch) OnRequestFulfilled(j *job.Job, now simtime.Time) {
	p.queue.OnRequestFulfilled(j, now)
	p.match.OnRequestFulfilled(j, now)
}

func (p *fifoMatch) OnJobDone(j *job.Job, now simtime.Time) {
	p.queue.OnJobDone(j, now)
	p.match.OnJobDone(j, now)
}

func (p *fifoMatch) ObserveResponse(j *job.Job, d *device.Device, dur simtime.Duration, now simtime.Time) {
	p.match.ObserveResponse(j, d, dur, now)
}

// Assign hands d to the oldest open request whose tier filter admits it.
func (p *fifoMatch) Assign(d *device.Device, now simtime.Time) *job.Job {
	return p.queue.AssignIf(d, func(j *job.Job) bool { return p.match.TierAccepts(j.ID, d, now) })
}

// Figure11 reproduces the ablation breakdown.
func Figure11(scale Scale, seeds int) (*Figure11Result, error) {
	if seeds <= 0 {
		seeds = 3
	}
	res := &Figure11Result{
		Workloads:  []workload.Scenario{workload.Low, workload.High},
		Schedulers: []string{"FIFO", "Venn-w/o-sched", "Venn-w/o-match", "Venn"},
		Speedup:    make(map[workload.Scenario]map[string]float64),
	}
	setups := make([]Setup, 0, len(res.Workloads)*seeds)
	for _, sc := range res.Workloads {
		for s := 0; s < seeds; s++ {
			setup := NewSetup(scale, int64(6000*int(sc)+s))
			setup.Jobs.Scenario = sc
			setups = append(setups, setup)
		}
	}
	cmps, err := CompareMany(setups, func(int) map[string]SchedulerFactory { return AblationSchedulers() })
	if err != nil {
		return nil, err
	}
	for i, sc := range res.Workloads {
		res.Speedup[sc] = meanSpeedups(cmps[i*seeds:(i+1)*seeds], res.Schedulers)
	}
	return res, nil
}

// Render prints the ablation table.
func (r *Figure11Result) Render() string {
	t := NewTable("Figure 11: average JCT improvement breakdown (vs Random)",
		append([]string{"Workload"}, r.Schedulers...)...)
	for _, sc := range r.Workloads {
		row := []any{sc.String()}
		for _, name := range r.Schedulers {
			row = append(row, FormatSpeedup(r.Speedup[sc][name]))
		}
		t.AddRow(row...)
	}
	t.Caption = "(paper Low: 1.55/1.62/1.79/1.88; High: 1.42/1.42/1.63/1.63)"
	return t.Render()
}

// --- Figure 12: impact of the number of jobs ---

// Figure12Result reports speed-up over Random vs workload size.
type Figure12Result struct {
	JobCounts  []int
	Schedulers []string
	Speedup    map[int]map[string]float64
}

// Figure12 sweeps the number of jobs on the Even workload.
func Figure12(scale Scale, seeds int) (*Figure12Result, error) {
	if seeds <= 0 {
		seeds = 3
	}
	res := &Figure12Result{
		JobCounts:  []int{25, 50, 75},
		Schedulers: []string{"FIFO", "SRSF", "Venn"},
		Speedup:    make(map[int]map[string]float64),
	}
	if scale == ScaleQuick {
		res.JobCounts = []int{8, 16, 24}
	}
	setups := figure12Setups(scale, res.JobCounts, seeds)
	cmps, err := CompareMany(setups, func(int) map[string]SchedulerFactory { return StandardSchedulers() })
	if err != nil {
		return nil, err
	}
	for i, n := range res.JobCounts {
		res.Speedup[n] = meanSpeedups(cmps[i*seeds:(i+1)*seeds], res.Schedulers)
	}
	return res, nil
}

// figure12Setups returns Figure 12's setups, seeds per job count. Every job
// count of a seed index runs on the same fleet; the workload is drawn anew,
// since its size is what the sweep changes.
func figure12Setups(scale Scale, jobCounts []int, seeds int) []Setup {
	setups := make([]Setup, 0, len(jobCounts)*seeds)
	for _, n := range jobCounts {
		for s := 0; s < seeds; s++ {
			setup := NewSetup(scale, int64(7000+100*n+s))
			setup.Fleet.Seed = int64(7000 + s)
			setup.Jobs.NumJobs = n
			setups = append(setups, setup)
		}
	}
	return setups
}

// Render prints the sweep.
func (r *Figure12Result) Render() string {
	t := NewTable("Figure 12: average JCT improvement vs number of jobs",
		"#Jobs", "FIFO", "SRSF", "Venn")
	for _, n := range r.JobCounts {
		row := []any{n}
		for _, name := range r.Schedulers {
			row = append(row, FormatSpeedup(r.Speedup[n][name]))
		}
		t.AddRow(row...)
	}
	t.Caption = "(paper: Venn leads at every size; gap widens with contention)"
	return t.Render()
}

// --- Figure 13: impact of the number of tiers ---

// Figure13Result reports Venn's speed-up over Random at tier counts 1-4.
type Figure13Result struct {
	Tiers   []int
	Speedup map[int]float64
}

// Figure13 sweeps the matching granularity V on the Low workload (where
// matching matters most).
func Figure13(scale Scale, seeds int) (*Figure13Result, error) {
	if seeds <= 0 {
		seeds = 3
	}
	res := &Figure13Result{Tiers: []int{1, 2, 3, 4}, Speedup: map[int]float64{}}
	setups := make([]Setup, 0, len(res.Tiers)*seeds)
	tierOf := make([]int, 0, len(res.Tiers)*seeds)
	for _, v := range res.Tiers {
		for s := 0; s < seeds; s++ {
			// Same seed across tier counts so the sweep isolates V.
			// Low contention (few small jobs on the full fleet) puts
			// the JCT into the matching-dominated regime.
			setup := NewSetup(scale, int64(8000+s))
			setup.Jobs.Scenario = workload.Low
			setup.Jobs.NumJobs = setup.Jobs.NumJobs / 3
			setup.Jobs.MaxDemand = 15
			setup.Jobs.MinRounds = 6
			setup.Jobs.MeanInterArrival = 2 * simtime.Hour
			setups = append(setups, setup)
			tierOf = append(tierOf, v)
		}
	}
	cmps, err := CompareMany(setups, func(i int) map[string]SchedulerFactory {
		tiers := tierOf[i]
		return map[string]SchedulerFactory{
			"Random": func() sim.Scheduler { return newRandomBaseline() },
			"Venn": func() sim.Scheduler {
				o := core.DefaultOptions()
				o.Tiers = tiers
				return core.New(o)
			},
		}
	})
	if err != nil {
		return nil, err
	}
	for i, v := range res.Tiers {
		res.Speedup[v] = meanSpeedups(cmps[i*seeds:(i+1)*seeds], []string{"Venn"})["Venn"]
	}
	return res, nil
}

// Render prints the sweep.
func (r *Figure13Result) Render() string {
	t := NewTable("Figure 13: Venn improvement vs number of device tiers",
		"Tiers", "Speedup")
	for _, v := range r.Tiers {
		t.AddRow(v, FormatSpeedup(r.Speedup[v]))
	}
	t.Caption = "(paper: gains grow with granularity then plateau)"
	return t.Render()
}

// --- Figure 14: fairness knob ---

// Figure14Result reports, per epsilon, Venn's speed-up over Random and the
// fraction of jobs finishing within their fair-share JCT.
type Figure14Result struct {
	Epsilons  []float64
	Speedup   map[float64]float64
	FairShare map[float64]float64 // fraction of submitted jobs completing with JCT <= M*sd
}

// Figure14 sweeps the fairness knob.
func Figure14(scale Scale, seeds int) (*Figure14Result, error) {
	if seeds <= 0 {
		seeds = 3
	}
	res := &Figure14Result{
		Epsilons:  []float64{0, 1, 2, 4, 6},
		Speedup:   map[float64]float64{},
		FairShare: map[float64]float64{},
	}
	setups := figure14Setups(scale, res.Epsilons, seeds)
	sp := make([]float64, len(setups))
	fair := make([]float64, len(setups))
	err := parallelEach(len(setups), func(i int) error {
		setup, o := setups[i], core.DefaultOptions()
		o.Epsilon = res.Epsilons[i/seeds]
		fleet := trace.GenerateFleet(setup.Fleet)
		wl := workload.Generate(setup.Jobs)
		random, err := RunOne(fleet, wl, newRandomBaseline, setup.Seed+100, nil)
		if err != nil {
			return err
		}
		venn, err := RunOne(fleet, wl, func() sim.Scheduler { return core.New(o) }, setup.Seed+100, nil)
		if err != nil {
			return err
		}
		sp[i] = venn.SpeedupOver(random)
		fair[i] = fairShareFraction(venn, fleet, len(wl.Jobs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, eps := range res.Epsilons {
		res.Speedup[eps] = stats.Mean(sp[i*seeds : (i+1)*seeds])
		res.FairShare[eps] = stats.Mean(fair[i*seeds : (i+1)*seeds])
	}
	return res, nil
}

// figure14Setups returns Figure 14's setups, seeds per epsilon. Every
// epsilon of a seed index runs on the same fleet and workload.
func figure14Setups(scale Scale, epsilons []float64, seeds int) []Setup {
	setups := make([]Setup, 0, len(epsilons)*seeds)
	for range epsilons {
		for s := 0; s < seeds; s++ {
			setups = append(setups, NewSetup(scale, int64(9000+s)))
		}
	}
	return setups
}

// fairShareFraction computes the share of the m submitted jobs that completed
// with a JCT within the fair-share bound T = M * sd, with sd the analytic
// no-contention JCT (per-round supply-limited acquisition plus tail response
// time). A job that never completed counts as a miss.
func fairShareFraction(r *sim.Result, fleet *trace.Fleet, m int) float64 {
	if m <= 0 {
		return 0
	}
	// Eligible check-in rate per category from the fleet trace.
	horizonH := simtime.Duration(fleet.Horizon).Hours()
	ratePerCat := map[string]float64{}
	for _, cat := range device.Categories() {
		n := 0.0
		for i, d := range fleet.Devices {
			if cat.Eligible(d) {
				n += float64(len(fleet.Intervals[i]))
			}
		}
		ratePerCat[cat.Name] = n / horizonH
	}
	const respTailSec = 300.0
	met := 0
	for _, j := range r.Completed {
		rate := ratePerCat[j.Requirement.Name]
		if rate <= 0 {
			rate = 1
		}
		sdSec := float64(j.Rounds) * (float64(j.Demand)/rate*3600 + respTailSec)
		fair := float64(m) * sdSec
		if j.JCT().Seconds() <= fair {
			met++
		}
	}
	return float64(met) / float64(m)
}

// Render prints the sweep.
func (r *Figure14Result) Render() string {
	t := NewTable("Figure 14: fairness knob sweep",
		"Epsilon", "Speedup vs Random", "Jobs within fair-share JCT")
	for _, eps := range r.Epsilons {
		t.AddRow(fmt.Sprintf("%.0f", eps), FormatSpeedup(r.Speedup[eps]),
			fmt.Sprintf("%.0f%%", 100*r.FairShare[eps]))
	}
	t.Caption = "(paper: speed-up declines and fair-share attainment rises with epsilon)"
	return t.Render()
}

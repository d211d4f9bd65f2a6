package sim

import (
	"testing"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
)

// fifoSched is a minimal in-package FIFO scheduler for engine tests.
type fifoSched struct {
	env  *Env
	open []*job.Job
}

func (s *fifoSched) Name() string  { return "test-fifo" }
func (s *fifoSched) Bind(env *Env) { s.env = env }
func (s *fifoSched) OnJobArrival(j *job.Job, now simtime.Time) {
}
func (s *fifoSched) OnRequest(j *job.Job, now simtime.Time) {
	for _, o := range s.open {
		if o.ID == j.ID {
			return
		}
	}
	s.open = append(s.open, j)
}
func (s *fifoSched) OnRequestFulfilled(j *job.Job, now simtime.Time) { s.remove(j.ID) }
func (s *fifoSched) OnJobDone(j *job.Job, now simtime.Time)          { s.remove(j.ID) }
func (s *fifoSched) remove(id job.ID) {
	for i, o := range s.open {
		if o.ID == id {
			s.open = append(s.open[:i], s.open[i+1:]...)
			return
		}
	}
}
func (s *fifoSched) Assign(d *device.Device, now simtime.Time) *job.Job {
	for _, j := range s.open {
		if j.State() == job.StateScheduling && j.RemainingDemand() > 0 && j.Requirement.Eligible(d) {
			return j
		}
	}
	return nil
}
func (s *fifoSched) ObserveResponse(*job.Job, *device.Device, simtime.Duration, simtime.Time) {}

// uniformFleet builds n always-on identical devices over the horizon.
func uniformFleet(n int, horizon simtime.Duration, cpu, mem float64) *trace.Fleet {
	f := &trace.Fleet{Horizon: horizon}
	for i := 0; i < n; i++ {
		f.Devices = append(f.Devices, device.New(device.ID(i), cpu, mem))
		f.Intervals = append(f.Intervals, []trace.Interval{{Start: 0, End: simtime.Time(horizon)}})
	}
	return f
}

func quietResponse() ResponseModel {
	return ResponseModel{Median: 10 * simtime.Second, P95: 20 * simtime.Second, DisableFailures: true}
}

func TestEngineRunsSimpleJob(t *testing.T) {
	fleet := uniformFleet(20, simtime.Day, 0.8, 0.8)
	j := job.New(0, device.General, 5, 2, 0)
	eng, err := NewEngine(Config{
		Fleet:     fleet,
		Jobs:      []*job.Job{j},
		Scheduler: &fifoSched{},
		Response:  quietResponse(),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if len(res.Completed) != 1 {
		t.Fatalf("job did not complete: %v", res)
	}
	if res.Assignments < 10 {
		t.Errorf("expected >= 10 assignments (2 rounds x 5), got %d", res.Assignments)
	}
	if res.AvgJCT <= 0 {
		t.Error("AvgJCT must be positive")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() *Result {
		fleet := trace.GenerateFleet(trace.FleetConfig{NumDevices: 300, Horizon: 2 * simtime.Day, Seed: 3})
		jobs := []*job.Job{
			job.New(0, device.General, 10, 3, 0),
			job.New(1, device.ComputeRich, 8, 2, simtime.Time(simtime.Hour)),
		}
		eng, err := NewEngine(Config{Fleet: fleet, Jobs: jobs, Scheduler: &fifoSched{}, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run()
	}
	a, b := run(), run()
	if a.Assignments != b.Assignments || a.Responses != b.Responses || a.AvgJCT != b.AvgJCT {
		t.Errorf("engine is not deterministic: %v vs %v", a, b)
	}
}

func TestOneTaskPerDay(t *testing.T) {
	// 5 devices, one job needing 3 devices x 4 rounds, all-day availability:
	// each device may serve at most one task per day, so at most 5
	// assignments can happen on day one.
	fleet := uniformFleet(5, 3*simtime.Day, 0.9, 0.9)
	j := job.New(0, device.General, 3, 4, 0)
	eng, err := NewEngine(Config{
		Fleet: fleet, Jobs: []*job.Job{j}, Scheduler: &fifoSched{},
		Response: quietResponse(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	// 4 rounds x 3 = 12 assignments over >= 3 days at 5/day: round 2
	// cannot finish on day one. The job finishes only if the horizon
	// admits ceil(12/5) = 3 days, which it does (exactly).
	if res.Assignments > 15 {
		t.Errorf("more assignments than the per-day budget allows: %d", res.Assignments)
	}
	if len(res.Completed) == 1 {
		if res.Completed[0].JCT() < simtime.Duration(2*simtime.Day)-simtime.Duration(simtime.Hour) {
			t.Errorf("JCT %v too small for the per-day budget", res.Completed[0].JCT())
		}
	}
}

func TestIneligibleAssignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("assigning an ineligible device must panic")
		}
	}()
	fleet := uniformFleet(3, simtime.Day, 0.1, 0.1) // low-end devices only
	j := job.New(0, device.HighPerf, 1, 1, 0)
	eng, err := NewEngine(Config{
		Fleet: fleet, Jobs: []*job.Job{j},
		Scheduler: &badSched{target: j}, Response: quietResponse(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
}

// badSched assigns every device to its target regardless of eligibility.
type badSched struct {
	env    *Env
	target *job.Job
}

func (s *badSched) Name() string                                                             { return "bad" }
func (s *badSched) Bind(env *Env)                                                            { s.env = env }
func (s *badSched) OnJobArrival(*job.Job, simtime.Time)                                      {}
func (s *badSched) OnRequest(*job.Job, simtime.Time)                                         {}
func (s *badSched) OnRequestFulfilled(*job.Job, simtime.Time)                                {}
func (s *badSched) OnJobDone(*job.Job, simtime.Time)                                         {}
func (s *badSched) ObserveResponse(*job.Job, *device.Device, simtime.Duration, simtime.Time) {}
func (s *badSched) Assign(d *device.Device, now simtime.Time) *job.Job {
	if s.target.State() == job.StateScheduling && s.target.RemainingDemand() > 0 {
		return s.target
	}
	return nil
}

func TestConfigValidation(t *testing.T) {
	fleet := uniformFleet(2, simtime.Day, 0.5, 0.5)
	j := job.New(0, device.General, 1, 1, 0)
	cases := []Config{
		{Jobs: []*job.Job{j}, Scheduler: &fifoSched{}},                  // no fleet
		{Fleet: fleet, Scheduler: &fifoSched{}},                         // no jobs
		{Fleet: fleet, Jobs: []*job.Job{j}},                             // no scheduler
		{Fleet: fleet, Jobs: []*job.Job{j, j}, Scheduler: &fifoSched{}}, // dup IDs
	}
	for i, cfg := range cases {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestResponseModelScaling(t *testing.T) {
	m := DefaultResponseModel()
	rng := stats.NewRNG(1)
	fast := device.New(0, 1, 1) // speed 2.0
	slow := device.New(1, 0, 0) // speed 0.5
	j := job.New(0, device.General, 1, 1, 0)
	var fastSum, slowSum float64
	const n = 3000
	for i := 0; i < n; i++ {
		fd, _ := m.Sample(rng, fast, j)
		sd, _ := m.Sample(rng, slow, j)
		fastSum += fd.Seconds()
		slowSum += sd.Seconds()
	}
	if slowSum <= 2*fastSum {
		t.Errorf("slow device should take ~4x longer: fast=%.0f slow=%.0f", fastSum, slowSum)
	}
	// TaskScale stretches durations.
	heavy := job.New(1, device.General, 1, 1, 0)
	heavy.TaskScale = 3
	var lightSum, heavySum float64
	for i := 0; i < n; i++ {
		ld, _ := m.Sample(rng, fast, j)
		hd, _ := m.Sample(rng, fast, heavy)
		lightSum += ld.Seconds()
		heavySum += hd.Seconds()
	}
	if heavySum <= 2*lightSum {
		t.Errorf("TaskScale=3 should take ~3x longer: light=%.0f heavy=%.0f", lightSum, heavySum)
	}
}

func TestResponseModelFailures(t *testing.T) {
	m := DefaultResponseModel()
	rng := stats.NewRNG(2)
	frail := device.New(0, 0, 0) // highest failure probability
	j := job.New(0, device.General, 1, 1, 0)
	fails := 0
	const n = 5000
	for i := 0; i < n; i++ {
		_, ok := m.Sample(rng, frail, j)
		if !ok {
			fails++
		}
	}
	want := frail.FailureProb
	got := float64(fails) / n
	if got < want*0.7 || got > want*1.3 {
		t.Errorf("failure rate = %.3f, want ~%.3f", got, want)
	}
	m.DisableFailures = true
	for i := 0; i < 1000; i++ {
		if _, ok := m.Sample(rng, frail, j); !ok {
			t.Fatal("DisableFailures must suppress dropouts")
		}
	}
}

func TestDeadlineAbortsSlowRound(t *testing.T) {
	// A fleet of very slow devices and tasks longer than the deadline:
	// the round must abort at least once.
	fleet := uniformFleet(30, 2*simtime.Day, 0.0, 0.0)
	j := job.New(0, device.General, 5, 1, 0)
	j.TaskScale = 50 // ~50 min median on a slow device, deadline ~5 min
	eng, err := NewEngine(Config{
		Fleet: fleet, Jobs: []*job.Job{j}, Scheduler: &fifoSched{},
		Response: ResponseModel{Median: 60 * simtime.Second, P95: 120 * simtime.Second, DisableFailures: true},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.Aborts == 0 {
		t.Error("expected at least one deadline abort")
	}
}

func TestRoundObserverReceivesParticipants(t *testing.T) {
	fleet := uniformFleet(20, simtime.Day, 0.7, 0.7)
	j := job.New(0, device.General, 5, 2, 0)
	var rounds []int
	var counts []int
	obs := func(jb *job.Job, round int, parts []device.ID, now simtime.Time) {
		rounds = append(rounds, round)
		counts = append(counts, len(parts))
		seen := map[device.ID]bool{}
		for _, p := range parts {
			if seen[p] {
				t.Errorf("duplicate participant %d in round %d", p, round)
			}
			seen[p] = true
		}
	}
	eng, err := NewEngine(Config{
		Fleet: fleet, Jobs: []*job.Job{j}, Scheduler: &fifoSched{},
		Response: quietResponse(), Seed: 4, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(rounds) != 2 || rounds[0] != 1 || rounds[1] != 2 {
		t.Fatalf("observer rounds = %v", rounds)
	}
	for _, c := range counts {
		if c < j.TargetResponses() {
			t.Errorf("observer got %d participants, want >= %d", c, j.TargetResponses())
		}
	}
}

func TestEnvSupplyEstimates(t *testing.T) {
	fleet := uniformFleet(50, 2*simtime.Day, 0.9, 0.9)
	j := job.New(0, device.HighPerf, 5, 1, simtime.Time(simtime.Hour))
	eng, err := NewEngine(Config{
		Fleet: fleet, Jobs: []*job.Job{j}, Scheduler: &fifoSched{},
		Response: quietResponse(), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := eng.env
	// Prior: 50 devices with 1 interval each over 48h ~ 1.04/h, all in
	// the High-Perf cell.
	rate := env.EligibleRatePerHour(device.HighPerf, 0)
	if rate < 0.5 || rate > 2 {
		t.Errorf("prior eligible rate = %v, want ~1/h", rate)
	}
	if got := env.EligibleRatePerHour(device.Requirement{MinCPU: 0.95, MinMem: 0.95}, 0); got != 0 {
		// 0.9-score devices are in the 0.5-1.0 band of this grid (cuts
		// at 0 and 0.5 only), so a 0.95 threshold still matches the
		// same region; accept either 0 or the band rate.
		_ = got
	}
	res := eng.Run()
	if len(res.Completed) != 1 {
		t.Fatalf("job incomplete: %v", res)
	}
}

func TestResultMetrics(t *testing.T) {
	fleet := uniformFleet(30, simtime.Day, 0.6, 0.6)
	jobs := []*job.Job{
		job.New(0, device.General, 4, 2, 0),
		job.New(1, device.General, 4, 2, 0),
	}
	eng, err := NewEngine(Config{
		Fleet: fleet, Jobs: jobs, Scheduler: &fifoSched{},
		Response: quietResponse(), Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if len(res.Unfinished) != 0 {
		t.Fatalf("%d jobs unfinished", len(res.Unfinished))
	}
	if len(res.JCTSeconds()) != 2 {
		t.Fatal("JCTSeconds size")
	}
	if _, ok := res.JobJCT(0); !ok {
		t.Fatal("JobJCT(0) missing")
	}
	if _, ok := res.JobJCT(99); ok {
		t.Fatal("JobJCT(99) must be missing")
	}
	if sp := res.SpeedupOver(res); sp != 1 {
		t.Errorf("self speedup = %v, want 1", sp)
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

func TestEventQueueOrdering(t *testing.T) {
	c := newCalendar()
	c.push(&event{at: 50, kind: evDeviceOnline})
	c.push(&event{at: 10, kind: evDeviceOnline})
	c.push(&event{at: 10, kind: evDeviceOffline}) // same time: FIFO by seq
	c.push(&event{at: 30, kind: evJobArrival})
	var times []simtime.Time
	var kinds []eventKind
	for !c.empty() {
		ev := c.pop()
		times = append(times, ev.at)
		kinds = append(kinds, ev.kind)
	}
	want := []simtime.Time{10, 10, 30, 50}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("pop order %v", times)
		}
	}
	if kinds[0] != evDeviceOnline || kinds[1] != evDeviceOffline {
		t.Error("ties must preserve push order")
	}
}

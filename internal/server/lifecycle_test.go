package server

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
)

// lifecycleModel makes every task last exactly its median (median = P95):
// 100 s on a CPU-1 device (speed 2) and 400 s on a CPU-0 one (speed 0.5).
var lifecycleModel = sim.ResponseModel{Median: 200 * simtime.Second, P95: 200 * simtime.Second}

// lifecycleDev is one device of a sequence: it checks in at on seconds, with
// CPU score 1 (fast) or 0 (slow), and drops out of its task when fail is set.
type lifecycleDev struct {
	on   float64
	fast bool
	fail bool
}

func (d lifecycleDev) device(id int) *device.Device {
	cpu := 0.0
	if d.fast {
		cpu = 1
	}
	dev := device.New(device.ID(id), cpu, 0.5)
	dev.FailureProb = 0
	if d.fail {
		dev.FailureProb = 1
	}
	return dev
}

// lifecycleCases are the round rules' sequences. Each lists the job, its
// devices, the job's outcome per event in time order (a = assignment,
// r = response, x = dropout, e = deadline; then the Outcome: S stale,
// F fulfilled, R round done, J job done, A aborted, - nothing) and the
// scheduler callbacks the engine and the manager must both make. Devices
// check in only while a request is open, and a dropout's time (half its
// task under the replay, anywhere from 10% to all of it under the engine)
// never reorders it against another event.
var lifecycleCases = []struct {
	name           string
	demand, rounds int
	devs           []lifecycleDev
	outcomes       string
	calls          string
}{
	{
		name: "assign to fulfilled", demand: 2, rounds: 2,
		devs:     []lifecycleDev{{on: 10, fast: true}, {on: 20, fast: true}, {on: 200, fast: true}, {on: 210, fast: true}},
		outcomes: "a- aF r- rR a- aF r- rRJ eS eS",
		calls:    "arrival r1/a1, request r1/a1, fulfilled r1/a1, response 100s, response 100s, request r2/a2, fulfilled r2/a2, response 100s, response 100s, done r3/a2",
	},
	{
		// Target 4 of 5: the first dropout leaves it reachable, the second
		// does not. The slow devices report into the retry as stale.
		name: "failures past the 80% line", demand: 5, rounds: 1,
		devs: []lifecycleDev{
			{on: 10}, {on: 20}, {on: 30}, {on: 40, fast: true, fail: true}, {on: 50, fast: true, fail: true},
			{on: 305, fast: true}, {on: 315, fast: true}, {on: 325, fast: true}, {on: 335, fast: true}, {on: 345, fast: true},
		},
		outcomes: "a- a- a- a- aF x- xA a- a- a- a- aF eS r- rS r- rS r- rS rRJ rS eS",
		calls:    "arrival r1/a1, request r1/a1, fulfilled r1/a1, request r1/a2, fulfilled r1/a2, response 100s, response 100s, response 100s, response 100s, done r2/a2",
	},
	{
		// The round meets its target with the slow device still out; its
		// deadline and that device's report both land in round 2.
		name: "deadline after the target is met", demand: 5, rounds: 2,
		devs: []lifecycleDev{
			{on: 10}, {on: 20, fast: true}, {on: 30, fast: true}, {on: 40, fast: true}, {on: 50, fast: true},
			{on: 380, fast: true}, {on: 390, fast: true}, {on: 400, fast: true}, {on: 420, fast: true}, {on: 430, fast: true},
		},
		outcomes: "a- a- a- a- aF r- r- r- rR eS a- a- a- rS a- aF r- r- r- rRJ rS eS",
		calls:    "arrival r1/a1, request r1/a1, fulfilled r1/a1, response 100s, response 100s, response 100s, response 100s, request r2/a2, fulfilled r2/a2, response 100s, response 100s, response 100s, response 100s, done r3/a2",
	},
	{
		name: "deadline short of the target", demand: 2, rounds: 1,
		devs:     []lifecycleDev{{on: 10, fast: true}, {on: 20}, {on: 500, fast: true}, {on: 510, fast: true}},
		outcomes: "a- aF r- eA rS a- aF r- rRJ eS",
		calls:    "arrival r1/a1, request r1/a1, fulfilled r1/a1, response 100s, request r1/a2, fulfilled r1/a2, response 100s, response 100s, done r2/a2",
	},
	{
		// The slow device of the aborted attempt reports while the retry is
		// one response short; counted, it would finish the round early. The
		// first attempt's deadline also fires inside the retry.
		name: "stale report after an abort", demand: 2, rounds: 1,
		devs:     []lifecycleDev{{on: 10}, {on: 20, fast: true, fail: true}, {on: 250, fast: true}, {on: 320, fast: true}},
		outcomes: "a- aF xA a- aF eS r- rS rRJ eS",
		calls:    "arrival r1/a1, request r1/a1, fulfilled r1/a1, request r1/a2, fulfilled r1/a2, response 100s, response 100s, done r2/a2",
	},
	{
		name: "report after the job is done", demand: 5, rounds: 1,
		devs:     []lifecycleDev{{on: 10}, {on: 20, fast: true}, {on: 30, fast: true}, {on: 40, fast: true}, {on: 50, fast: true}},
		outcomes: "a- a- a- a- aF r- r- r- rRJ eS rS",
		calls:    "arrival r1/a1, request r1/a1, fulfilled r1/a1, response 100s, response 100s, response 100s, response 100s, done r2/a1",
	},
	{
		// Responses that arrive while the request is still being scheduled
		// meet the target, so the last assignment finishes the round and no
		// deadline is armed.
		name: "target met while scheduling", demand: 5, rounds: 1,
		devs:     []lifecycleDev{{on: 10, fast: true}, {on: 20, fast: true}, {on: 30, fast: true}, {on: 40, fast: true}, {on: 200, fast: true}},
		outcomes: "a- a- a- a- r- r- r- r- aFRJ rS",
		calls:    "arrival r1/a1, request r1/a1, response 100s, response 100s, response 100s, response 100s, fulfilled r2/a1, done r2/a1",
	},
}

// TestRoundLifecycleOneRuleSet drives each sequence through the job alone
// and checks its outcomes, then through the simulator and the live manager,
// and requires the scheduler callbacks each sequence names from both.
func TestRoundLifecycleOneRuleSet(t *testing.T) {
	for _, tc := range lifecycleCases {
		t.Run(tc.name, func(t *testing.T) {
			j := job.New(0, device.General, tc.demand, tc.rounds, 0)
			j.Start(0)
			js := &jobReplay{j: j, devs: tc.devs}
			replayLifecycle(t, tc.devs, j, js)
			if got := strings.Join(js.outcomes, " "); got != tc.outcomes {
				t.Errorf("job outcomes:\n got %s\nwant %s", got, tc.outcomes)
			}
			if got := engineCalls(t, tc.demand, tc.rounds, tc.devs); got != tc.calls {
				t.Errorf("engine callbacks:\n got %s\nwant %s", got, tc.calls)
			}
			if got := managerCalls(t, tc.demand, tc.rounds, tc.devs); got != tc.calls {
				t.Errorf("manager callbacks:\n got %s\nwant %s", got, tc.calls)
			}
		})
	}
}

// recorder is a sim.Scheduler that serves the first job with open demand and
// logs every lifecycle callback with the job's round and attempt.
type recorder struct {
	jobs []*job.Job
	log  []string
}

func (r *recorder) add(ev string, j *job.Job) {
	r.log = append(r.log, fmt.Sprintf("%s r%d/a%d", ev, j.Round(), j.Attempt()))
}

func (r *recorder) Name() string  { return "recorder" }
func (r *recorder) Bind(*sim.Env) {}
func (r *recorder) calls() string { return strings.Join(r.log, ", ") }
func (r *recorder) OnJobArrival(j *job.Job, _ simtime.Time) {
	r.jobs = append(r.jobs, j)
	r.add("arrival", j)
}
func (r *recorder) OnRequest(j *job.Job, _ simtime.Time)          { r.add("request", j) }
func (r *recorder) OnRequestFulfilled(j *job.Job, _ simtime.Time) { r.add("fulfilled", j) }
func (r *recorder) OnJobDone(j *job.Job, _ simtime.Time)          { r.add("done", j) }
func (r *recorder) ObserveResponse(_ *job.Job, _ *device.Device, dur simtime.Duration, _ simtime.Time) {
	r.log = append(r.log, fmt.Sprintf("response %.0fs", dur.Seconds()))
}
func (r *recorder) Assign(*device.Device, simtime.Time) *job.Job {
	for _, j := range r.jobs {
		if j.RemainingDemand() > 0 {
			return j
		}
	}
	return nil
}

// engineCalls runs the sequence in the simulator: one availability window
// per device from its check-in, and the engine's own task outcomes.
func engineCalls(t *testing.T, demand, rounds int, devs []lifecycleDev) string {
	fleet := &trace.Fleet{Horizon: simtime.Day}
	for i, d := range devs {
		on := simtime.FromSeconds(d.on)
		fleet.Devices = append(fleet.Devices, d.device(i))
		fleet.Intervals = append(fleet.Intervals, []trace.Interval{{Start: simtime.Time(on), End: simtime.Time(on + 6*simtime.Hour)}})
	}
	rec := &recorder{}
	eng, err := sim.NewEngine(sim.Config{
		Fleet: fleet, Jobs: []*job.Job{job.New(0, device.General, demand, rounds, 0)},
		Scheduler: rec, Response: lifecycleModel, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return rec.calls()
}

// managerCalls replays the sequence against a live manager on a fake clock:
// check-ins and reports as batches of one, deadlines through Tick.
func managerCalls(t *testing.T, demand, rounds int, devs []lifecycleDev) string {
	clk := newFakeClock()
	start := clk.t
	m := NewManager(Config{Policy: "fifo", Clock: clk.now, Seed: 1})
	rec := &recorder{}
	m.pol = rec
	st, err := m.RegisterJob(JobSpec{Category: device.General.Name, DemandPerRound: demand, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	replayLifecycle(t, devs, rec.jobs[0], &managerReplay{m: m, clk: clk, start: start, job: st.ID, devs: devs})
	return rec.calls()
}

// lifecycleRunner runs a job under replay: the bare job or a manager.
// checkIn returns whether the device was assigned, the attempt it joined and
// the deadline it armed (0 for none).
type lifecycleRunner interface {
	checkIn(now simtime.Time, dev int) (assigned bool, attempt int, deadline simtime.Time)
	report(now simtime.Time, dev, attempt int, ok bool, dur simtime.Duration)
	expire(now simtime.Time, attempt int)
}

// replayLifecycle plays the devices' timeline against a runner in time
// order: each device checks in, reports after its task (half of it for a
// dropout), and every armed deadline fires.
func replayLifecycle(t *testing.T, devs []lifecycleDev, j *job.Job, r lifecycleRunner) {
	t.Helper()
	type step struct {
		at       simtime.Time
		kind     byte // 'c' check-in, 'r' report, 'e' deadline
		dev, att int
	}
	var q []step
	for i, dv := range devs {
		q = append(q, step{at: simtime.Time(simtime.FromSeconds(dv.on)), kind: 'c', dev: i})
	}
	for len(q) > 0 {
		slices.SortStableFunc(q, func(a, b step) int { return int(a.at - b.at) })
		s := q[0]
		q = q[1:]
		switch s.kind {
		case 'c':
			assigned, att, deadline := r.checkIn(s.at, s.dev)
			if !assigned {
				t.Fatalf("device %d checked in at %v with no request open", s.dev, s.at)
			}
			dur, _ := sim.ResponseModel{Median: lifecycleModel.Median, P95: lifecycleModel.P95, DisableFailures: true}.
				Sample(stats.NewRNG(1), devs[s.dev].device(s.dev), j)
			if devs[s.dev].fail {
				dur /= 2
			}
			q = append(q, step{at: s.at.Add(dur), kind: 'r', dev: s.dev, att: att})
			if deadline != 0 {
				q = append(q, step{at: deadline, kind: 'e', att: att})
			}
		case 'r':
			r.report(s.at, s.dev, s.att, !devs[s.dev].fail, s.at.Sub(simtime.Time(simtime.FromSeconds(devs[s.dev].on))))
		case 'e':
			r.expire(s.at, s.att)
		}
	}
}

// jobReplay drives the job alone and records its outcomes.
type jobReplay struct {
	j        *job.Job
	devs     []lifecycleDev
	outcomes []string
}

func (r *jobReplay) note(ev string, out job.Outcome) {
	flags := ""
	for i, c := range "SFRJA" {
		if out&(1<<i) != 0 {
			flags += string(c)
		}
	}
	if flags == "" {
		flags = "-"
	}
	r.outcomes = append(r.outcomes, ev+flags)
}

func (r *jobReplay) checkIn(now simtime.Time, dev int) (bool, int, simtime.Time) {
	if r.j.RemainingDemand() == 0 {
		return false, 0, 0
	}
	att := r.j.Attempt()
	out := r.j.Assign(r.devs[dev].device(dev), now)
	r.note("a", out)
	if out&job.Fulfilled != 0 && out&job.RoundDone == 0 {
		return true, att, now.Add(r.j.Deadline())
	}
	return true, att, 0
}

func (r *jobReplay) report(now simtime.Time, _, attempt int, ok bool, _ simtime.Duration) {
	ev := "x"
	if ok {
		ev = "r"
	}
	r.note(ev, r.j.Report(attempt, ok, now))
}

func (r *jobReplay) expire(now simtime.Time, attempt int) { r.note("e", r.j.Expire(attempt, now)) }

// managerReplay drives a live manager; the attempt numbers are the manager's
// to keep, so it ignores them.
type managerReplay struct {
	m     *Manager
	clk   *fakeClock
	start time.Time
	job   int
	devs  []lifecycleDev
	armed simtime.Time
}

func (r *managerReplay) at(now simtime.Time) {
	r.clk.t = r.start.Add(time.Duration(now) * time.Millisecond)
}

func (r *managerReplay) checkIn(now simtime.Time, dev int) (bool, int, simtime.Time) {
	r.at(now)
	cpu := 0.0
	if r.devs[dev].fast {
		cpu = 1
	}
	a, err := checkInOne(r.m, CheckIn{DeviceID: fmt.Sprint("d", dev), CPU: cpu, Mem: 0.5})
	if err != nil {
		panic(err)
	}
	deadline, ok := r.m.deadlines[job.ID(r.job)]
	if !ok || deadline == r.armed {
		return a.Assigned, 0, 0
	}
	r.armed = deadline
	return a.Assigned, 0, deadline
}

func (r *managerReplay) report(now simtime.Time, dev, _ int, ok bool, dur simtime.Duration) {
	r.at(now)
	if err := reportOne(r.m, Report{DeviceID: fmt.Sprint("d", dev), JobID: r.job, OK: ok, DurationSeconds: dur.Seconds()}); err != nil {
		panic(err)
	}
}

func (r *managerReplay) expire(now simtime.Time, _ int) {
	r.at(now)
	r.m.Tick()
}

// TestIneligibleAssignmentPanics is the simulator's check of the same name on
// the live path: a policy that hands a device a job whose requirement it does
// not meet must not get the assignment through.
func TestIneligibleAssignmentPanics(t *testing.T) {
	m := NewManager(Config{Policy: "fifo", Clock: newFakeClock().now, Seed: 1})
	rec := &recorder{}
	m.pol = rec
	if _, err := m.RegisterJob(JobSpec{Category: device.HighPerf.Name, DemandPerRound: 1, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("assigning an ineligible device must panic")
		}
	}()
	checkInOne(m, CheckIn{DeviceID: "low-end", CPU: 0.1, Mem: 0.1})
}

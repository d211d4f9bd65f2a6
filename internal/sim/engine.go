package sim

import (
	"fmt"
	"slices"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
	"venn/internal/tsdb"
)

// RoundObserver is an optional hook invoked on every successful round
// completion with the devices that reported. The federated-learning emulator
// uses it to run actual model updates with the scheduled participants.
type RoundObserver func(j *job.Job, round int, participants []device.ID, now simtime.Time)

// Config describes one simulation run.
type Config struct {
	Fleet     *trace.Fleet
	Jobs      []*job.Job // arrival times set; need not be sorted
	Scheduler Scheduler
	Response  ResponseModel
	// Horizon caps the run; zero means the fleet horizon.
	Horizon simtime.Duration
	// TSDBWindow is the supply-averaging window (default 24h, §4.4).
	TSDBWindow simtime.Duration
	Seed       int64
	Observer   RoundObserver
}

// devRuntime is the engine's per-device state.
type devRuntime struct {
	dev         *device.Device
	cell        device.CellID
	online      bool
	busy        bool
	intervalEnd simtime.Time
	idleSeq     uint64 // position in the idle queue; 0 = not enqueued
}

// Engine executes one simulation run.
type Engine struct {
	cfg   Config
	cal   *calendar
	now   simtime.Time
	grid  *device.Grid
	env   *Env
	sched Scheduler
	rng   *stats.RNG

	devs map[device.ID]*devRuntime

	// idle is the FIFO queue of idle online devices (lazy deletion:
	// entries are skipped unless the runtime's idleSeq matches).
	idle    []idleEntry
	idleSeq uint64

	// responders collects the successful participants of the current
	// attempt per job, handed to the RoundObserver on completion.
	responders map[job.ID][]device.ID

	jobs map[job.ID]*job.Job

	// openDemand is the total unassigned demand over jobs currently in
	// StateScheduling. When it is zero no scheduler may legally assign
	// anything (job.Assign would panic), so idle-queue walks stop offering
	// devices entirely instead of collecting nil answers from every entry.
	openDemand int

	// Aggregate counters.
	assignments int
	responses   int
	failures    int
	aborts      int
	checkIns    int
}

type idleEntry struct {
	rt  *devRuntime
	seq uint64
}

// NewEngine validates the config and builds a ready-to-run engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Fleet == nil || len(cfg.Fleet.Devices) == 0 {
		return nil, fmt.Errorf("sim: config needs a non-empty fleet")
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: config needs a scheduler")
	}
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("sim: config needs at least one job")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = cfg.Fleet.Horizon
	}
	if cfg.TSDBWindow <= 0 {
		cfg.TSDBWindow = 24 * simtime.Hour
	}
	if cfg.Response.Median <= 0 {
		cfg.Response = DefaultResponseModel()
	}

	reqs := make([]device.Requirement, 0, len(cfg.Jobs))
	for _, j := range cfg.Jobs {
		reqs = append(reqs, j.Requirement)
	}
	grid := device.NewGrid(reqs)

	e := &Engine{
		cfg:        cfg,
		cal:        newCalendar(),
		grid:       grid,
		sched:      cfg.Scheduler,
		rng:        stats.NewRNG(cfg.Seed),
		devs:       make(map[device.ID]*devRuntime, len(cfg.Fleet.Devices)),
		responders: make(map[job.ID][]device.ID, len(cfg.Jobs)),
		jobs:       make(map[job.ID]*job.Job, len(cfg.Jobs)),
	}

	// Seed device events from the availability trace.
	for i, d := range cfg.Fleet.Devices {
		rt := &devRuntime{dev: d, cell: grid.CellOfDevice(d)}
		e.devs[d.ID] = rt
		for _, iv := range cfg.Fleet.Intervals[i] {
			if iv.Start >= simtime.Time(cfg.Horizon) {
				break
			}
			e.cal.push(&event{at: iv.Start, kind: evDeviceOnline, dev: d, intervalEnd: iv.End})
			if iv.End < simtime.Time(cfg.Horizon) {
				e.cal.push(&event{at: iv.End, kind: evDeviceOffline, dev: d})
			}
		}
	}

	// Seed job arrivals.
	for _, j := range cfg.Jobs {
		if _, dup := e.jobs[j.ID]; dup {
			return nil, fmt.Errorf("sim: duplicate job id %d", j.ID)
		}
		e.jobs[j.ID] = j
		e.cal.push(&event{at: j.Arrival, kind: evJobArrival, job: j})
	}

	// Environment for the scheduler: cell priors from the fleet trace.
	db := tsdb.New(grid.NumCells(), cfg.TSDBWindow, simtime.Hour)
	prior := make([]float64, grid.NumCells())
	horizonHours := simtime.Duration(cfg.Horizon).Hours()
	if horizonHours <= 0 {
		horizonHours = 1
	}
	for i, d := range cfg.Fleet.Devices {
		c := grid.CellOfDevice(d)
		prior[c] += float64(len(cfg.Fleet.Intervals[i])) / horizonHours
	}
	e.env = &Env{
		Grid:          grid,
		DB:            db,
		CellPriorRate: prior,
		Jobs:          e.jobs,
		RNG:           e.rng.Fork(),
		IdlePerCell:   make([]int, grid.NumCells()),
	}
	e.env.CountIdle = func(pred func(*device.Device) bool) int {
		n := 0
		for _, ent := range e.idle {
			rt := ent.rt
			if rt.idleSeq != ent.seq || !rt.online || rt.busy {
				continue
			}
			if pred(rt.dev) {
				n++
			}
		}
		return n
	}
	e.sched.Bind(e.env)
	return e, nil
}

// Env exposes the engine's scheduler environment (useful in tests).
func (e *Engine) Env() *Env { return e.env }

// Grid returns the requirement grid of the run.
func (e *Engine) Grid() *device.Grid { return e.grid }

// Now returns the current simulation time.
func (e *Engine) Now() simtime.Time { return e.now }

// Run executes the simulation to the horizon (or event exhaustion) and
// returns the result.
func (e *Engine) Run() *Result {
	for !e.cal.empty() {
		ev := e.cal.pop()
		if ev.at > simtime.Time(e.cfg.Horizon) {
			break
		}
		e.now = ev.at
		switch ev.kind {
		case evDeviceOnline:
			e.handleOnline(ev)
		case evDeviceOffline:
			e.handleOffline(ev)
		case evJobArrival:
			e.handleArrival(ev)
		case evResponse:
			e.handleResponse(ev)
		case evDeadline:
			e.handleDeadline(ev)
		}
	}
	return e.buildResult()
}

func (e *Engine) handleOnline(ev *event) {
	rt := e.devs[ev.dev.ID]
	rt.online = true
	rt.intervalEnd = ev.intervalEnd
	// One CL task per device per day (§5.1): a device that already worked
	// today checks in but is not schedulable until tomorrow's session.
	if int(rt.dev.LastTaskDay) == e.now.DayIndex() {
		return
	}
	e.checkIns++
	e.env.DB.RecordCheckIn(rt.cell, e.now)
	e.enqueueIdle(rt)
	// Fast path: try to place just this device before a full drain.
	e.tryAssign(rt)
}

func (e *Engine) handleOffline(ev *event) {
	rt := e.devs[ev.dev.ID]
	rt.online = false
	if rt.idleSeq != 0 {
		rt.idleSeq = 0 // lazily removes it from the idle queue
		e.env.IdlePerCell[rt.cell]--
	}
}

func (e *Engine) handleArrival(ev *event) {
	j := ev.job
	j.Start(e.now)
	e.openDemand += j.RemainingDemand()
	e.sched.OnJobArrival(j, e.now)
	e.sched.OnRequest(j, e.now)
	e.drain()
}

func (e *Engine) handleResponse(ev *event) {
	rt := e.devs[ev.dev.ID]
	rt.busy = false
	// The device stays out of the pool until its next check-in (it has
	// used its task-per-day budget).
	j := ev.job
	before := j.RemainingDemand()
	out := j.Report(int(ev.attempt), ev.ok, e.now)
	if out == job.Stale {
		return
	}
	if ev.ok {
		e.responses++
		e.sched.ObserveResponse(j, ev.dev, ev.at.Sub(ev.start), e.now)
		e.responders[j.ID] = append(e.responders[j.ID], ev.dev.ID)
	} else {
		e.failures++
	}
	e.settle(j, out, before)
}

func (e *Engine) handleDeadline(ev *event) {
	before := ev.job.RemainingDemand()
	e.settle(ev.job, ev.job.Expire(int(ev.attempt), e.now), before)
}

// settle turns the outcome of one of j's lifecycle events into scheduler
// callbacks, deadline arming and the engine's counters. openBefore is j's
// open demand before the event.
func (e *Engine) settle(j *job.Job, out job.Outcome, openBefore int) {
	e.openDemand += j.RemainingDemand() - openBefore
	if out&job.Fulfilled != 0 {
		e.sched.OnRequestFulfilled(j, e.now)
		if out&job.RoundDone == 0 {
			e.cal.push(&event{at: e.now.Add(j.Deadline()), kind: evDeadline, job: j, attempt: int32(j.Attempt())})
		}
	}
	if out&(job.RoundDone|job.Aborted) == 0 {
		return
	}
	if out&job.Aborted != 0 {
		e.aborts++
	} else if e.cfg.Observer != nil {
		e.cfg.Observer(j, j.CompletedRounds(), slices.Clone(e.responders[j.ID]), e.now)
	}
	e.responders[j.ID] = e.responders[j.ID][:0]
	if out&job.JobDone != 0 {
		e.sched.OnJobDone(j, e.now)
	} else {
		e.sched.OnRequest(j, e.now)
	}
	e.drain()
}

// enqueueIdle appends the device to the idle FIFO.
func (e *Engine) enqueueIdle(rt *devRuntime) {
	e.idleSeq++
	rt.idleSeq = e.idleSeq
	e.idle = append(e.idle, idleEntry{rt: rt, seq: e.idleSeq})
	e.env.IdlePerCell[rt.cell]++
}

// tryAssign offers a single idle device to the scheduler.
func (e *Engine) tryAssign(rt *devRuntime) bool {
	if e.openDemand <= 0 || !rt.online || rt.busy || rt.idleSeq == 0 {
		return false
	}
	j := e.sched.Assign(rt.dev, e.now)
	if j == nil {
		return false
	}
	e.assign(rt, j)
	return true
}

// drain repeatedly offers idle devices (in check-in order) to the scheduler
// until a full pass yields no assignment or all open demand is satisfied.
// No scheduler may legally assign with zero open demand, so once demand runs
// out mid-pass the remaining live entries are retained in bulk without
// consulting the scheduler, and dead entries are dropped wholesale.
func (e *Engine) drain() {
	if e.openDemand <= 0 {
		return
	}
	for {
		assignedAny := false
		// Compact while scanning: keep only still-valid entries.
		kept := e.idle[:0]
		for idx, ent := range e.idle {
			rt := ent.rt
			if rt.idleSeq != ent.seq || !rt.online || rt.busy {
				continue // stale entry
			}
			if e.openDemand <= 0 {
				// Bulk-skip: no more offers can succeed this pass;
				// keep the rest, filtering dead entries only.
				for _, rest := range e.idle[idx:] {
					if rest.rt.idleSeq == rest.seq && rest.rt.online && !rest.rt.busy {
						kept = append(kept, rest)
					}
				}
				break
			}
			j := e.sched.Assign(rt.dev, e.now)
			if j == nil {
				kept = append(kept, ent)
				continue
			}
			e.assign(rt, j)
			assignedAny = true
		}
		// Zero the tail so stale pointers don't leak.
		for i := len(kept); i < len(e.idle); i++ {
			e.idle[i] = idleEntry{}
		}
		e.idle = kept
		if !assignedAny || e.openDemand <= 0 {
			return
		}
	}
}

// assign commits an idle device to the job the scheduler picked for it and
// schedules the task's outcome.
func (e *Engine) assign(rt *devRuntime, j *job.Job) {
	attempt, before := int32(j.Attempt()), j.RemainingDemand()
	out := j.Assign(rt.dev, e.now)
	e.assignments++
	rt.idleSeq = 0
	e.env.IdlePerCell[rt.cell]--
	rt.busy = true
	rt.dev.LastTaskDay = int32(e.now.DayIndex())

	dur, ok := e.cfg.Response.Sample(e.rng, rt.dev, j)
	finish := e.now.Add(dur)
	// The device leaves when its availability window closes: tasks that
	// would outlive the window fail at the window's end.
	if finish > rt.intervalEnd {
		ok = false
		finish = rt.intervalEnd
		if finish <= e.now {
			finish = e.now.Add(simtime.Second)
		}
	}
	e.cal.push(&event{at: finish, kind: evResponse, dev: rt.dev, job: j, attempt: attempt, ok: ok, start: e.now})
	e.settle(j, out, before)
}

func (e *Engine) buildResult() *Result {
	r := &Result{
		SchedulerName: e.sched.Name(),
		Horizon:       e.cfg.Horizon,
		Assignments:   e.assignments,
		Responses:     e.responses,
		Failures:      e.failures,
		Aborts:        e.aborts,
		CheckIns:      e.checkIns,
	}
	for _, j := range e.cfg.Jobs {
		if j.Done() {
			r.Completed = append(r.Completed, j)
		} else {
			r.Unfinished = append(r.Unfinished, j)
		}
	}
	r.finalize()
	return r
}

package sim

import (
	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/tsdb"
)

// Scheduler is the resource-manager plug-in point. The engine drives it with
// job lifecycle notifications and asks it, for every checked-in device, which
// job (if any) the device should work for. Implementations include the
// paper's baselines (Random, FIFO, SRSF in internal/sched) and Venn itself
// (internal/core).
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string

	// Bind hands the scheduler its environment before the run starts.
	Bind(env *Env)

	// OnJobArrival notifies that a job has arrived (its first request
	// opens immediately after via OnRequest).
	OnJobArrival(j *job.Job, now simtime.Time)

	// OnRequest notifies that a request is (re)opened: a new round began
	// or an aborted attempt was resubmitted.
	OnRequest(j *job.Job, now simtime.Time)

	// OnRequestFulfilled notifies that the open request acquired its full
	// demand and entered response collection.
	OnRequestFulfilled(j *job.Job, now simtime.Time)

	// OnJobDone notifies that the job completed all rounds.
	OnJobDone(j *job.Job, now simtime.Time)

	// Assign picks the job a checked-in device should serve, or nil to
	// leave the device idle. The engine guarantees the device is online
	// and unused today; the scheduler must only return jobs whose
	// requirement the device satisfies and whose request is open. The job
	// enforces both (job.Job.Assign panics) on both paths, under the
	// simulator and under the live daemon.
	Assign(d *device.Device, now simtime.Time) *job.Job

	// ObserveResponse reports a completed (successful) task so the
	// scheduler can profile per-tier response times for device matching.
	ObserveResponse(j *job.Job, d *device.Device, dur simtime.Duration, now simtime.Time)
}

// Env is the scheduler's view of the simulated world.
type Env struct {
	// Grid is the atomic-cell grid induced by all job requirements in
	// the workload.
	Grid *device.Grid

	// DB records device check-ins per cell; schedulers query it for
	// trailing-window supply rates (§4.4).
	DB *tsdb.DB

	// CellPriorRate[c] is the expected check-in rate (devices/hour) of
	// cell c computed from the fleet trace, used before the DB has
	// observed enough history.
	CellPriorRate []float64

	// Jobs lists every job in the workload keyed by ID (including ones
	// that have not arrived yet); schedulers must not act on a job before
	// its OnJobArrival.
	Jobs map[job.ID]*job.Job

	// RNG is the scheduler's private randomness stream.
	RNG *stats.RNG

	// IdlePerCell[c] is the engine-maintained count of devices currently
	// checked in, idle, and schedulable in cell c. Schedulers may fold it
	// into their scheduling-delay estimates: a standing pool fulfills a
	// request immediately regardless of the arrival rate. The live daemon
	// (server.Manager) leaves it nil, so IdleInRegion reads 0 there.
	IdlePerCell []int

	// CountIdle counts currently idle schedulable devices matching the
	// predicate (engine-provided). The live daemon leaves it nil as well, so
	// core.decideTier's standing-pool test reads 0 there and every request
	// that passes its regime test exits at pool_short: until the daemon
	// keeps an idle pool, the simulator and the daemon make different tier
	// decisions.
	CountIdle func(pred func(*device.Device) bool) int
}

// IdleInRegion returns the standing idle-device count over a region.
func (e *Env) IdleInRegion(region device.RegionSet) int {
	total := 0
	region.ForEach(func(c device.CellID) {
		if int(c) < len(e.IdlePerCell) {
			total += e.IdlePerCell[c]
		}
	})
	return total
}

// EligibleRatePerHour returns the current estimate of the check-in rate of
// devices eligible for the requirement: the 24h-window measurement when
// enough history exists, otherwise the trace prior.
func (e *Env) EligibleRatePerHour(req device.Requirement, now simtime.Time) float64 {
	region := e.Grid.RegionOf(req)
	return e.RegionRatePerHour(region, now)
}

// RegionRatePerHour returns the supply-rate estimate summed over a region.
func (e *Env) RegionRatePerHour(region device.RegionSet, now simtime.Time) float64 {
	useDB := e.DB != nil && e.DB.HasHistory(now, 6)
	total := 0.0
	region.ForEach(func(c device.CellID) {
		total += e.CellRatePerHour(c, now, useDB)
	})
	return total
}

// CellRatePerHour returns the supply-rate estimate of one cell.
func (e *Env) CellRatePerHour(c device.CellID, now simtime.Time, useDB bool) float64 {
	if useDB && e.DB != nil {
		if r := e.DB.RatePerHour(c, now); r > 0 {
			return r
		}
	}
	if int(c) < len(e.CellPriorRate) {
		return e.CellPriorRate[c]
	}
	return 0
}

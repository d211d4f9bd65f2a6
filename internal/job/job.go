// Package job models collaborative-learning jobs: their resource
// requirements, per-round resource requests, the synchronous-round lifecycle
// (schedule -> collect responses -> complete, or abort on too many dropouts
// or on the deadline), and the completion-time accounting the evaluation
// reports (scheduling delay, response-collection time, JCT).
//
// The lifecycle's rules live here and nowhere else: one method per event
// (Assign, Report, Expire) applies the event and returns an Outcome. The two
// places that run jobs, the simulator (sim.Engine) and the live daemon
// (server.Manager), each turn an Outcome into scheduler callbacks, deadline
// arming and their own counters.
package job

import (
	"fmt"
	"math"

	"venn/internal/device"
	"venn/internal/simtime"
)

// ID identifies a job within one simulation.
type ID int32

// State is a job's position in its lifecycle.
type State int

const (
	// StatePending: created but not yet arrived (arrival time in future).
	StatePending State = iota
	// StateScheduling: a request is open and still acquiring devices.
	StateScheduling
	// StateCollecting: all devices assigned; waiting for responses.
	StateCollecting
	// StateDone: all rounds finished.
	StateDone
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateScheduling:
		return "scheduling"
	case StateCollecting:
		return "collecting"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ReportFraction is the fraction of a round's target participants that must
// report back for the round to succeed (§5.1: 80%).
const ReportFraction = 0.8

// Deadline bounds for a round's response collection (§5.1: 5-15 minutes
// depending on round demand).
const (
	MinDeadline = 5 * simtime.Minute
	MaxDeadline = 15 * simtime.Minute
	// deadlineDemandScale is the per-round demand at which the deadline
	// saturates at MaxDeadline.
	deadlineDemandScale = 1000.0
)

// Attempt records one scheduling attempt of a round. A round may take
// several attempts if the deadline fires before enough responses arrive.
type Attempt struct {
	RequestTime simtime.Time // request (re)submission
	SchedDone   simtime.Time // the moment the last needed device was assigned
	EndTime     simtime.Time // completion or abort
	Assigned    int
	Responses   int
	Failures    int
	Aborted     bool
}

// SchedulingDelay is the time this attempt spent acquiring devices.
func (a Attempt) SchedulingDelay() simtime.Duration {
	if a.SchedDone < a.RequestTime {
		return 0
	}
	return a.SchedDone.Sub(a.RequestTime)
}

// ResponseTime is the time from full assignment to attempt end.
func (a Attempt) ResponseTime() simtime.Duration {
	if a.SchedDone == 0 && a.EndTime == 0 {
		return 0
	}
	if a.EndTime < a.SchedDone {
		return 0
	}
	return a.EndTime.Sub(a.SchedDone)
}

// RoundRecord aggregates the attempts of one training round.
type RoundRecord struct {
	Round    int // 1-based
	Start    simtime.Time
	End      simtime.Time
	Attempts []Attempt
}

// Outcome is the set of things one lifecycle event did to the job.
type Outcome uint8

const (
	// Stale: the event belongs to an attempt that already ended or to a
	// finished job, and changed nothing.
	Stale Outcome = 1 << iota
	// Fulfilled: the open request acquired its full demand and response
	// collection began, so the attempt's deadline runs from now unless the
	// round is done too.
	Fulfilled
	// RoundDone: the round reached its report target and finished; the next
	// round's request is open unless JobDone is set too.
	RoundDone
	// JobDone: the round that finished was the last.
	JobDone
	// Aborted: the attempt ended short of its report target and a fresh
	// attempt of the same round is open.
	Aborted
)

// Job is one collaborative-learning job.
type Job struct {
	ID          ID
	Name        string
	Requirement device.Requirement
	Demand      int // participants required per round
	Rounds      int // total training rounds
	Arrival     simtime.Time

	// TaskScale scales per-device task duration relative to the reference
	// model (a heavier model trains longer). 1.0 by default.
	TaskScale float64

	// State of the in-flight request.
	state      State
	round      int // current round, 1-based; round > Rounds means done
	attempt    int // current attempt over the job's life, 1-based
	assigned   int
	responses  int
	failures   int
	curAttempt Attempt

	records    []RoundRecord
	completion simtime.Time

	// serviceTime accumulates the time the job actively held its full
	// per-round device allocation (response-collection phases). The
	// fairness knob (§4.4) reads this as the job's "time usage" t_i.
	serviceTime simtime.Duration
}

// New creates a job that arrives at the given time.
func New(id ID, req device.Requirement, demand, rounds int, arrival simtime.Time) *Job {
	if demand < 1 {
		demand = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	return &Job{
		ID:          id,
		Name:        fmt.Sprintf("job%d", id),
		Requirement: req,
		Demand:      demand,
		Rounds:      rounds,
		Arrival:     arrival,
		TaskScale:   1.0,
		state:       StatePending,
	}
}

// State returns the job's lifecycle state.
func (j *Job) State() State { return j.state }

// Round returns the current 1-based round number (Rounds+1 once done).
func (j *Job) Round() int { return j.round }

// CompletedRounds returns the number of successfully finished rounds.
func (j *Job) CompletedRounds() int {
	if j.state == StateDone {
		return j.Rounds
	}
	return j.round - 1
}

// Done reports whether the job has finished all rounds.
func (j *Job) Done() bool { return j.state == StateDone }

// JCT returns the job completion time (valid only once Done).
func (j *Job) JCT() simtime.Duration { return j.completion.Sub(j.Arrival) }

// RemainingDemand returns how many more devices the open request needs.
// Zero when no request is open.
func (j *Job) RemainingDemand() int {
	if j.state != StateScheduling {
		return 0
	}
	return j.Demand - j.assigned
}

// RemainingRounds returns the number of rounds left including the current.
func (j *Job) RemainingRounds() int {
	if j.state == StateDone {
		return 0
	}
	rem := j.Rounds - j.round + 1
	if j.state == StatePending {
		rem = j.Rounds
	}
	return rem
}

// RemainingService estimates total outstanding device-demand (remaining
// rounds x per-round demand), the quantity SRSF orders by.
func (j *Job) RemainingService() int { return j.RemainingRounds() * j.Demand }

// TotalDemand returns the job's lifetime device demand.
func (j *Job) TotalDemand() int { return j.Rounds * j.Demand }

// TargetResponses returns how many responses complete a round.
func (j *Job) TargetResponses() int {
	t := int(math.Ceil(ReportFraction * float64(j.Demand)))
	if t < 1 {
		t = 1
	}
	return t
}

// Deadline returns the response-collection deadline for this job's rounds,
// interpolated in [MinDeadline, MaxDeadline] by per-round demand (§5.1).
func (j *Job) Deadline() simtime.Duration {
	frac := float64(j.Demand) / deadlineDemandScale
	if frac > 1 {
		frac = 1
	}
	d := simtime.Duration(float64(MinDeadline) + frac*float64(MaxDeadline-MinDeadline))
	return simtime.Clamp(d, MinDeadline, MaxDeadline)
}

// ServiceTime returns the accumulated active-service time (see §4.4).
func (j *Job) ServiceTime() simtime.Duration { return j.serviceTime }

// Records returns the per-round records accumulated so far.
func (j *Job) Records() []RoundRecord { return j.records }

// --- lifecycle transitions, driven by sim.Engine and server.Manager ---

// Start opens the first round's request. Must be called exactly once, at the
// job's arrival time.
func (j *Job) Start(now simtime.Time) {
	if j.state != StatePending {
		panic(fmt.Sprintf("job %d: Start in state %v", j.ID, j.state))
	}
	j.round = 1
	j.beginRound(now)
}

// beginRound opens the request for the current round.
func (j *Job) beginRound(now simtime.Time) {
	j.records = append(j.records, RoundRecord{Round: j.round, Start: now})
	j.beginAttempt(now)
}

// beginAttempt opens a (re)scheduling attempt of the current round.
func (j *Job) beginAttempt(now simtime.Time) {
	j.attempt++
	j.state = StateScheduling
	j.assigned, j.responses, j.failures = 0, 0, 0
	j.curAttempt = Attempt{RequestTime: now}
}

// AddAssignment notes that one device was matched to the open request.
// It returns true when the request just became fully assigned (the moment
// the scheduling delay ends and response collection begins).
func (j *Job) AddAssignment(now simtime.Time) (fullyAssigned bool) {
	if j.state != StateScheduling {
		panic(fmt.Sprintf("job %d: AddAssignment in state %v", j.ID, j.state))
	}
	j.assigned++
	if j.assigned >= j.Demand {
		j.state = StateCollecting
		j.curAttempt.SchedDone = now
		j.curAttempt.Assigned = j.assigned
		return true
	}
	return false
}

// AddResponse notes one device response. It returns true when the round just
// completed (enough responses collected).
func (j *Job) AddResponse(now simtime.Time) (roundComplete bool) {
	if j.state != StateCollecting && j.state != StateScheduling {
		// Late responses after round completion are ignored.
		return false
	}
	j.responses++
	j.curAttempt.Responses = j.responses
	if j.state == StateCollecting && j.responses >= j.TargetResponses() {
		return true
	}
	return false
}

// AttemptResponses returns the response count of the current attempt.
func (j *Job) AttemptResponses() int { return j.responses }

// AttemptAssigned returns the assignment count of the current attempt.
func (j *Job) AttemptAssigned() int { return j.assigned }

// CanComplete reports whether enough responses have arrived to finish the
// round (only meaningful while collecting).
func (j *Job) CanComplete() bool {
	return j.state == StateCollecting && j.responses >= j.TargetResponses()
}

// CompleteRound finalizes the current round. It returns true when the whole
// job just finished. Call only when CanComplete().
func (j *Job) CompleteRound(now simtime.Time) (jobDone bool) {
	if j.state != StateCollecting {
		panic(fmt.Sprintf("job %d: CompleteRound in state %v", j.ID, j.state))
	}
	j.curAttempt.EndTime = now
	rec := &j.records[len(j.records)-1]
	rec.Attempts = append(rec.Attempts, j.curAttempt)
	rec.End = now
	j.serviceTime += j.curAttempt.ResponseTime()

	j.round++
	if j.round > j.Rounds {
		j.state = StateDone
		j.completion = now
		return true
	}
	j.beginRound(now)
	return false
}

// abortAttempt abandons the current attempt and opens a fresh attempt of
// the same round.
func (j *Job) abortAttempt(now simtime.Time) Outcome {
	j.curAttempt.EndTime = now
	j.curAttempt.Aborted = true
	rec := &j.records[len(j.records)-1]
	rec.Attempts = append(rec.Attempts, j.curAttempt)
	// A partially collected attempt still consumed devices; count the
	// active period toward service time so fairness sees the usage.
	j.serviceTime += j.curAttempt.ResponseTime()
	j.beginAttempt(now)
	return Aborted
}

// finishRound finalizes the current round and says whether the job finished
// with it.
func (j *Job) finishRound(now simtime.Time) Outcome {
	if j.CompleteRound(now) {
		return RoundDone | JobDone
	}
	return RoundDone
}

// stale reports whether an event of the given attempt arrives after that
// attempt, or the whole job, ended.
func (j *Job) stale(attempt int) bool {
	return attempt != j.attempt || j.state == StateDone
}

// Attempt returns the current attempt's number, counted from 1 over the
// job's whole life: every round completion and every abort opens the next
// one. Report and Expire take the number of the attempt their event belongs
// to; sim.Engine stamps each task and deadline event with it.
func (j *Job) Attempt() int { return j.attempt }

// Assign commits device d to the open request. It panics when d does not meet
// the job's requirement or no request is open: the scheduler returned a job
// it must not. The round finishes at once when responses that arrived while
// it was still being scheduled already reach its target.
func (j *Job) Assign(d *device.Device, now simtime.Time) Outcome {
	if !j.Requirement.Eligible(d) {
		panic(fmt.Sprintf("job %d: assigned ineligible %v to %v", j.ID, d, j))
	}
	if !j.AddAssignment(now) {
		return 0
	}
	if j.CanComplete() {
		return Fulfilled | j.finishRound(now)
	}
	return Fulfilled
}

// Report applies the end of one task of the given attempt: a response when
// ok, a dropout otherwise. A response that reaches the report target finishes
// the round. A dropout that leaves the target out of reach of the devices
// still working aborts the attempt at once rather than at the deadline (§5.1).
func (j *Job) Report(attempt int, ok bool, now simtime.Time) Outcome {
	if j.stale(attempt) {
		return Stale
	}
	if ok {
		if j.AddResponse(now) {
			return j.finishRound(now)
		}
		return 0
	}
	j.failures++
	j.curAttempt.Failures = j.failures
	if j.state == StateCollecting && j.Demand-j.failures < j.TargetResponses() {
		return j.abortAttempt(now)
	}
	return 0
}

// Expire applies the response deadline of the given attempt: a collecting
// attempt is aborted. Assign and Report finish a round the moment it reaches
// its target, so an attempt still collecting at its deadline is short of it.
func (j *Job) Expire(attempt int, now simtime.Time) Outcome {
	if j.stale(attempt) || j.state != StateCollecting {
		return Stale
	}
	return j.abortAttempt(now)
}

// String implements fmt.Stringer.
func (j *Job) String() string {
	return fmt.Sprintf("%s[%s D=%d R=%d %v]", j.Name, j.Requirement, j.Demand, j.Rounds, j.state)
}

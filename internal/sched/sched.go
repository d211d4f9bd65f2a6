// Package sched implements the baseline CL resource managers the paper
// compares against (§5.1): optimized Random matching (the common design of
// Apple's, Meta's, and Google's resource managers), FIFO, and SRSF (shortest
// remaining service first). All three keep a priority-ordered queue of open
// requests and hand each checked-in device to the first eligible job.
//
// ByName is the one place a scheduler name resolves: the live manager, the
// daemon's -policy flag and the evaluation's lineup all go through it.
package sched

import (
	"sort"
	"strings"

	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
)

// Policy orders the open-request queue.
type Policy int

const (
	// PolicyRandom assigns each request a random priority when it opens —
	// the paper's "optimized random matching" baseline: devices flow to a
	// randomized job order (rather than scattering uniformly), which
	// reduces round abortions under contention.
	PolicyRandom Policy = iota
	// PolicyFIFO orders by job arrival time.
	PolicyFIFO
	// PolicySRSF orders by remaining service (remaining rounds x demand),
	// smallest first.
	PolicySRSF
)

// Names lists the scheduler names ByName resolves, sorted.
var Names = []string{"fifo", "random", "srsf", "venn"}

// ByName builds the named scheduler (case-insensitive): the paper's Venn
// configured by opts, or one of its three baselines, which take no options.
// ok is false for a name not in Names.
func ByName(name string, opts core.Options) (s sim.Scheduler, ok bool) {
	switch strings.ToLower(name) {
	case "venn":
		return core.New(opts), true
	case "fifo":
		return NewFIFO(), true
	case "srsf":
		return NewSRSF(), true
	case "random":
		return NewRandom(), true
	}
	return nil, false
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyRandom:
		return "Random"
	case PolicyFIFO:
		return "FIFO"
	case PolicySRSF:
		return "SRSF"
	default:
		return "Unknown"
	}
}

// queued is one open request in the queue.
type queued struct {
	job      *job.Job
	priority float64 // meaning depends on policy
}

// Baseline is a queue-order scheduler parameterized by Policy. It implements
// sim.Scheduler.
type Baseline struct {
	policy Policy
	env    *sim.Env
	queue  []queued
	dirty  bool
}

// New returns a baseline scheduler with the given policy.
func New(policy Policy) *Baseline { return &Baseline{policy: policy} }

// NewRandom returns the optimized random-matching baseline.
func NewRandom() *Baseline { return New(PolicyRandom) }

// NewFIFO returns the FIFO baseline.
func NewFIFO() *Baseline { return New(PolicyFIFO) }

// NewSRSF returns the shortest-remaining-service-first baseline.
func NewSRSF() *Baseline { return New(PolicySRSF) }

// Name implements sim.Scheduler.
func (b *Baseline) Name() string { return b.policy.String() }

// Bind implements sim.Scheduler.
func (b *Baseline) Bind(env *sim.Env) { b.env = env }

// OnJobArrival implements sim.Scheduler.
func (b *Baseline) OnJobArrival(j *job.Job, now simtime.Time) {}

// OnRequest implements sim.Scheduler.
func (b *Baseline) OnRequest(j *job.Job, now simtime.Time) {
	pr := b.priorityFor(j, now)
	for i := range b.queue {
		if b.queue[i].job.ID == j.ID {
			b.queue[i].priority = pr
			b.dirty = true
			return
		}
	}
	b.queue = append(b.queue, queued{job: j, priority: pr})
	b.dirty = true
}

func (b *Baseline) priorityFor(j *job.Job, now simtime.Time) float64 {
	switch b.policy {
	case PolicyRandom:
		return b.env.RNG.Float64()
	case PolicyFIFO:
		return float64(j.Arrival)
	case PolicySRSF:
		return float64(j.RemainingService())
	default:
		return 0
	}
}

// OnRequestFulfilled implements sim.Scheduler: the request leaves the queue.
func (b *Baseline) OnRequestFulfilled(j *job.Job, now simtime.Time) {
	b.remove(j.ID)
}

// OnJobDone implements sim.Scheduler.
func (b *Baseline) OnJobDone(j *job.Job, now simtime.Time) {
	b.remove(j.ID)
}

func (b *Baseline) remove(id job.ID) {
	for i := range b.queue {
		if b.queue[i].job.ID == id {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			return
		}
	}
}

// Assign implements sim.Scheduler: first eligible open request in queue
// order gets the device.
func (b *Baseline) Assign(d *device.Device, now simtime.Time) *job.Job {
	return b.AssignIf(d, nil)
}

// AssignIf is Assign restricted to the jobs accept admits; a nil accept
// admits every job.
func (b *Baseline) AssignIf(d *device.Device, accept func(*job.Job) bool) *job.Job {
	b.ensureSorted()
	for _, q := range b.queue {
		j := q.job
		if j.State() != job.StateScheduling || j.RemainingDemand() <= 0 {
			continue
		}
		if j.Requirement.Eligible(d) && (accept == nil || accept(j)) {
			return j
		}
	}
	return nil
}

func (b *Baseline) ensureSorted() {
	if !b.dirty {
		return
	}
	sort.SliceStable(b.queue, func(i, k int) bool {
		if b.queue[i].priority != b.queue[k].priority {
			return b.queue[i].priority < b.queue[k].priority
		}
		return b.queue[i].job.ID < b.queue[k].job.ID
	})
	b.dirty = false
}

// ObserveResponse implements sim.Scheduler (baselines do not profile).
func (b *Baseline) ObserveResponse(j *job.Job, d *device.Device, dur simtime.Duration, now simtime.Time) {
}

// QueueLen reports the number of open requests (for tests).
func (b *Baseline) QueueLen() int { return len(b.queue) }

package policy

import (
	"sort"

	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
)

// FIFO hands each device to the oldest eligible open request. It is the
// promotion of the former core.Venn assignFIFO ablation into a first-class
// policy: FIFO order with Venn's tier-based device matching still in force —
// the paper's "Venn w/o scheduling" configuration of Figure 11. The plain
// FIFO baseline is sched.NewFIFO.
type FIFO struct {
	queue fifoQueue
	// match is a full Venn core the policy forwards every lifecycle event
	// to; it contributes only its tier-matching decisions
	// (profiling, tier filters), never its job order. Keeping the real core
	// behind the FIFO order — rather than re-extracting the matching
	// machinery — is what keeps the ablation byte-identical to the former
	// in-core implementation.
	match *core.Venn
	name  string
}

// NewFIFOMatch returns FIFO request order with Venn's tier-based matching in
// force. Options configure the inner matching core; DisableMatching reduces
// it to plain FIFO (the "Venn w/o both" ablation).
func NewFIFOMatch(opts core.Options) *FIFO {
	name := "Venn-w/o-sched"
	if opts.DisableMatching {
		name = "Venn-w/o-both"
	}
	return &FIFO{queue: newFIFOQueue(), match: core.New(opts), name: name}
}

// Name implements Policy.
func (p *FIFO) Name() string { return p.name }

// Bind implements Policy.
func (p *FIFO) Bind(env *sim.Env) {
	p.match.Bind(env)
}

// OnJobArrival implements Policy.
func (p *FIFO) OnJobArrival(j *job.Job, now simtime.Time) {
	p.match.OnJobArrival(j, now)
}

// OnRequest implements Policy.
func (p *FIFO) OnRequest(j *job.Job, now simtime.Time) {
	p.queue.Open(j)
	p.match.OnRequest(j, now)
}

// OnRequestFulfilled implements Policy.
func (p *FIFO) OnRequestFulfilled(j *job.Job, now simtime.Time) {
	p.queue.Close(j.ID)
	p.match.OnRequestFulfilled(j, now)
}

// OnJobDone implements Policy.
func (p *FIFO) OnJobDone(j *job.Job, now simtime.Time) {
	p.queue.Drop(j.ID)
	p.match.OnJobDone(j, now)
}

// ObserveResponse implements Policy; responses feed the matching core's
// per-tier profiles.
func (p *FIFO) ObserveResponse(j *job.Job, d *device.Device, dur simtime.Duration, now simtime.Time) {
	p.match.ObserveResponse(j, d, dur, now)
}

// Assign implements Policy: the first open request in arrival order whose
// requirement and matching tier filter admit the device.
func (p *FIFO) Assign(d *device.Device, now simtime.Time) *job.Job {
	var out *job.Job
	p.queue.ForEachOpen(func(j *job.Job) bool {
		if j.State() != job.StateScheduling || j.RemainingDemand() <= 0 {
			return true
		}
		if !j.Requirement.Eligible(d) {
			return true
		}
		if !p.match.TierAccepts(j.ID, d, now) {
			return true
		}
		out = j
		return false
	})
	return out
}

// QueueLen reports the number of open requests (for tests).
func (p *FIFO) QueueLen() int { return p.queue.Len() }

// fifoQueue holds the open requests in FIFO order — ascending (Arrival, ID).
// FIFO means arrival order across the job's whole lifetime, not
// request-reopen order: a job must not lose its place between rounds.
//
// The former implementation kept a sorted slice of exactly the open jobs and
// paid an O(n) copy-shift on every request open/close, which went quadratic
// under arrival bursts. A job's FIFO key (Arrival, ID) never changes, so the
// queue instead keeps every job it has ever admitted in one arrival-ordered
// slice and tracks which of them currently have an open request in a
// membership map. Opening or closing a request is then O(1) map work: a job
// that re-opens after a round completes is already in the slice at the right
// place. New jobs arrive with nondecreasing arrival times in both the
// simulator (event order) and the live server, so the slice insert is an
// amortized O(1) append; a rare out-of-order arrival falls back to one
// binary-search insertion.
//
// Completed jobs linger in the slice as tombstones until they outnumber the
// live entries, at which point one O(n) compaction drops them (and releases
// the job pointers for the garbage collector). Iteration order over open
// jobs is identical to the former sorted slice, keeping scheduling decisions
// byte-for-byte deterministic.
type fifoQueue struct {
	jobs []*job.Job
	// open[id] is present for every job in the slice; true while the job's
	// request is open.
	open map[job.ID]bool
	// done counts tombstones: slice entries whose job has completed and can
	// never re-open.
	done int
	// openCount tracks how many entries are currently open, so Len is O(1).
	openCount int
}

func newFIFOQueue() fifoQueue {
	return fifoQueue{open: make(map[job.ID]bool)}
}

// fifoLess orders by (Arrival, ID) ascending.
func fifoLess(a, b *job.Job) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// Open marks the job's request open, admitting the job on first sight.
func (q *fifoQueue) Open(j *job.Job) {
	if isOpen, present := q.open[j.ID]; present {
		if !isOpen {
			q.open[j.ID] = true
			q.openCount++
		}
		return
	}
	q.open[j.ID] = true
	q.openCount++
	if n := len(q.jobs); n == 0 || fifoLess(q.jobs[n-1], j) {
		q.jobs = append(q.jobs, j)
		return
	}
	i := sort.Search(len(q.jobs), func(k int) bool { return fifoLess(j, q.jobs[k]) })
	q.jobs = append(q.jobs, nil)
	copy(q.jobs[i+1:], q.jobs[i:])
	q.jobs[i] = j
}

// Close marks the job's request closed (fulfilled); the job stays admitted
// because a later round may re-open it.
func (q *fifoQueue) Close(id job.ID) {
	if isOpen, present := q.open[id]; present && isOpen {
		q.open[id] = false
		q.openCount--
	}
}

// Drop closes the job forever (job done) and schedules its slot for
// compaction once tombstones dominate.
func (q *fifoQueue) Drop(id job.ID) {
	isOpen, present := q.open[id]
	if !present {
		return
	}
	if isOpen {
		q.openCount--
	}
	q.open[id] = false
	q.done++
	if q.done > len(q.jobs)/2 && q.done > 16 {
		q.compact()
	}
}

// compact rewrites the slice without completed jobs.
func (q *fifoQueue) compact() {
	live := q.jobs[:0]
	for _, j := range q.jobs {
		if j.Done() {
			delete(q.open, j.ID)
			continue
		}
		live = append(live, j)
	}
	// Nil the vacated tail so dropped jobs (and their response histories)
	// are collectable.
	for i := len(live); i < len(q.jobs); i++ {
		q.jobs[i] = nil
	}
	q.jobs = live
	q.done = 0
}

// Len returns the number of open requests.
func (q *fifoQueue) Len() int { return q.openCount }

// ForEachOpen visits the open jobs in FIFO order until fn returns false.
func (q *fifoQueue) ForEachOpen(fn func(*job.Job) bool) {
	for _, j := range q.jobs {
		if !q.open[j.ID] {
			continue
		}
		if !fn(j) {
			return
		}
	}
}

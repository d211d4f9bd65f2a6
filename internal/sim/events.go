// Package sim implements the deterministic event-driven simulator that
// replays a device fleet trace against a set of collaborative-learning jobs
// under a pluggable resource-manager (scheduler). It reproduces the paper's
// evaluation testbed: devices check in and out following their availability
// trace, the scheduler matches each checked-in device to at most one job,
// assigned devices compute for a log-normal duration scaled by their speed
// (and may fail), and synchronous rounds complete when 80% of the target
// participants report before the deadline.
package sim

import (
	"container/heap"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/simtime"
)

// eventKind enumerates simulator events.
type eventKind uint8

const (
	evDeviceOnline eventKind = iota
	evDeviceOffline
	evJobArrival
	evResponse
	evDeadline
)

// event is one entry of the simulation event queue. Ties on time are broken
// by sequence number so runs are fully deterministic.
type event struct {
	at  simtime.Time
	seq uint64

	dev *device.Device
	job *job.Job

	// start is an evResponse's task start, for the profiler's duration.
	start simtime.Time
	// intervalEnd carries the availability-interval end for evDeviceOnline.
	intervalEnd simtime.Time
	// attempt is the job attempt (job.Attempt) an evResponse/evDeadline
	// belongs to; the job reports an event of an ended attempt as stale.
	// It and the two narrow fields below share one word, so an event stays
	// in the 64-byte size class.
	attempt int32
	kind    eventKind
	// ok marks an evResponse as a successful report (false = failure).
	ok bool
}

// eventQueue is a min-heap over (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// calendar wraps the heap with sequence numbering.
type calendar struct {
	q   eventQueue
	seq uint64
}

func newCalendar() *calendar {
	c := &calendar{}
	heap.Init(&c.q)
	return c
}

func (c *calendar) push(ev *event) {
	ev.seq = c.seq
	c.seq++
	heap.Push(&c.q, ev)
}

func (c *calendar) pop() *event {
	if len(c.q) == 0 {
		return nil
	}
	return heap.Pop(&c.q).(*event)
}

func (c *calendar) empty() bool { return len(c.q) == 0 }

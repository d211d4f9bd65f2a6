package main

import "time"

// pacedStats is what one open-loop run saw. Latencies are measured from the
// instant a frame was due, not from when it was sent, so a stall shows in
// every frame queued behind it.
type pacedStats struct {
	latency []time.Duration // per frame: due time to answer
	// late is how long after a frame was both due and the sender free it was
	// sent: the generator's own lateness (a spin overshoot, a descheduled
	// thread), not the wait behind an earlier frame, which latency carries.
	late           []time.Duration
	maxOutstanding int64         // most frames due but not yet answered
	wall           time.Duration // first due time to last answer
	spun           time.Duration // spent waiting for due times, in a spin
}

// runPaced sends frames 0..n-1 on a fixed schedule, one every interval, from
// the calling goroutine. do sends one frame and returns the instant it was
// answered (it may do untimed follow-up work after that instant). The sender
// waits for each answer, so one frame is in flight at a time; a frame that
// falls due meanwhile is sent as soon as the sender is free and is still
// timed from when it was due, so the schedule, not the server, sets the load
// and a slow answer is charged to every frame it holds up.
//
// The sender spins to its due times: a sleeping thread's wake-up is the first
// thing a busy host delays, and while it waits for an answer its P serves the
// daemon's goroutines, so the whole request runs without a thread hand-off.
func runPaced(n int, interval time.Duration, do func(frame int) (answered time.Time)) *pacedStats {
	st := &pacedStats{latency: make([]time.Duration, n), late: make([]time.Duration, n)}
	start := time.Now()
	free := start // when the sender finished the previous frame's work
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		ready := free
		if due.After(free) {
			st.spun += due.Sub(free)
			ready = due
		}
		now := time.Now()
		for now.Before(due) {
			now = time.Now()
		}
		st.late[i] = now.Sub(ready)
		// Frames i..k are due and unanswered, k the last one due by now.
		if o := int64(now.Sub(start)/interval) - int64(i) + 1; o > st.maxOutstanding {
			st.maxOutstanding = o
		}
		st.latency[i] = do(i).Sub(due)
		free = time.Now()
	}
	st.wall = free.Sub(start)
	return st
}

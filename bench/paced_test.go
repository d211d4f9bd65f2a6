package main

import (
	"testing"
	"time"

	"venn/internal/stats"
)

// An open loop times every frame from when it was due. A server that stalls
// 50 ms on one frame delays every frame that falls due during the stall, and
// each of them must show it: a closed loop, or timing from the send, would
// show one slow frame and hide the rest.
func TestOpenLoopChargesAStallToQueuedFrames(t *testing.T) {
	const (
		frames   = 400
		interval = 500 * time.Microsecond // 2,000 frames a second
		stallAt  = 100
		stall    = 50 * time.Millisecond
	)
	st := runPaced(frames, interval, func(frame int) time.Time {
		if frame == stallAt {
			time.Sleep(stall)
		}
		return time.Now()
	})

	if got := st.latency[stallAt]; got < stall {
		t.Fatalf("stalled frame took %v, want at least %v", got, stall)
	}
	// Frames due during the stall waited for what was left of it.
	behind := int(stall / interval)
	delayed := 0
	for f := stallAt + 1; f < stallAt+behind; f++ {
		left := stall - time.Duration(f-stallAt)*interval
		if st.latency[f] >= left-interval {
			delayed++
		}
	}
	if delayed < behind*9/10 {
		t.Errorf("%d of the %d frames queued behind the stall show it", delayed, behind-1)
	}
	if st.maxOutstanding < int64(behind/2) {
		t.Errorf("max outstanding %d, want about %d while the server stalled", st.maxOutstanding, behind)
	}
	// Well clear of the stall the loop is back on schedule.
	if got := stats.Percentile(micros(st.latency[:stallAt/2]), 50); got > 2000 {
		t.Errorf("median latency before the stall %v us", got)
	}
	if got := stats.Percentile(micros(st.latency[frames-50:]), 50); got > 2000 {
		t.Errorf("median latency after the stall %v us", got)
	}
	// The wait behind the stalled frame is latency, not generator lateness.
	if got := stats.Percentile(micros(st.late), 50); got > 200 {
		t.Errorf("median generator lateness %v us: the stall was charged to the generator", got)
	}
}

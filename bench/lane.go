package main

import (
	"fmt"

	"venn/internal/client"
	"venn/internal/server"
)

// counts is what a client saw. Items are check-ins or reports; a frame is one
// batch request.
type counts struct {
	frames       int64 // check-in frames answered
	checkIns     int64 // check-in items answered without a per-item error
	assigned     int64
	reportFrames int64
	reported     int64 // report items acknowledged without error
	jobs         int64 // jobs registered
	attempted    int64 // operations attempted: every item and registration sent
	failed       int64 // per-item errors, items of refused frames, failed registrations
}

func (c *counts) add(o counts) {
	c.frames += o.frames
	c.checkIns += o.checkIns
	c.assigned += o.assigned
	c.reportFrames += o.reportFrames
	c.reported += o.reported
	c.jobs += o.jobs
	c.attempted += o.attempted
	c.failed += o.failed
}

// lane is one closed-loop client: it sends a frame only after the previous
// one was answered. Devices a frame saw assigned report before the lane's
// next frame.
type lane struct {
	c       client.API
	ring    *deviceRing
	name    string
	next    int // next frame of the ring
	jobSeq  int
	pending []server.Report
	counts
}

// checkIn sends one check-in frame and queues the reports of the devices it
// saw assigned.
func (l *lane) checkIn(cis []server.CheckIn) {
	l.attempted += int64(len(cis))
	res, err := l.c.CheckInBatch(cis)
	if err != nil {
		l.failed += int64(len(cis))
		return
	}
	l.frames++
	for i := range res {
		if res[i].Error != "" {
			l.failed++
			continue
		}
		l.checkIns++
		if res[i].Assigned {
			l.assigned++
			l.pending = append(l.pending, server.Report{
				DeviceID: cis[i].DeviceID, JobID: res[i].JobID, OK: true, DurationSeconds: 30,
			})
		}
	}
}

// flushReports reports every device assigned so far.
func (l *lane) flushReports() {
	for off := 0; off < len(l.pending); off += server.MaxBatch {
		rs := l.pending[off:min(off+server.MaxBatch, len(l.pending))]
		l.attempted += int64(len(rs))
		res, err := l.c.ReportBatch(rs)
		if err != nil {
			l.failed += int64(len(rs))
			continue
		}
		l.reportFrames++
		for i := range res {
			if res[i].Error != "" {
				l.failed++
			} else {
				l.reported++
			}
		}
	}
	l.pending = l.pending[:0]
}

// registerDemand registers the lane's next demand-feeder job.
func (l *lane) registerDemand() {
	l.attempted++
	_, err := l.c.RegisterJob(server.JobSpec{
		Name:           fmt.Sprintf("feed-%s-%d", l.name, l.jobSeq),
		Category:       "General",
		DemandPerRound: demandOf(l.jobSeq),
		Rounds:         1,
	})
	if err != nil {
		l.failed++
		return
	}
	l.jobs++
	l.jobSeq++
}

// step drives one frame of the closed loop; feed turns on the demand feeder.
func (l *lane) step(feed bool) {
	l.flushReports()
	if feed && l.next%demandEvery == 0 {
		l.registerDemand()
	}
	l.checkIn(l.ring.frame(l.next))
	l.next++
}

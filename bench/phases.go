package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"venn/internal/client"
	"venn/internal/server"
)

// rig is one set-up: the workload's daemon(s), one closed-loop lane per
// daemon (two on one daemon when not federated), and the open-loop clients.
type rig struct {
	w     workload
	nodes []*node
	lanes []*lane
	// paced are the open-loop phase's clients: at most two connections in
	// all: one client of two connections, or one connection per daemon.
	paced []client.API
	in    *inputs
	whole *deviceRing // the whole fleet, for the open loop
	// pacedCounts is what the open-loop clients saw; the lanes keep their own.
	pacedCounts counts
}

func (r *rig) close() {
	for _, l := range r.lanes {
		_ = l.c.Close()
	}
	for _, c := range r.paced {
		_ = c.Close()
	}
	closeNodes(r.nodes)
}

// clientCounts sums what every client of the rig saw since set-up.
func (r *rig) clientCounts() counts {
	total := r.pacedCounts
	for _, l := range r.lanes {
		total.add(l.counts)
	}
	return total
}

func (r *rig) serverMetrics() []server.Metrics {
	out := make([]server.Metrics, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.m.MetricsSnapshot()
	}
	return out
}

// setUp is the timed part of phase 1: generate the inputs, start the
// daemon(s), dial, register the set-up jobs, and drive the first fleet pass,
// in which every device is a cold registry insert.
func setUp(w workload, seed int64, sc scale) (*rig, time.Duration, error) {
	t0 := time.Now()
	in := generateInputs(seed, sc)
	nodes, err := startNodes(w, managerConfig("", nil), true)
	if err != nil {
		return nil, 0, err
	}
	r := &rig{w: w, nodes: nodes, in: in, whole: newDeviceRing(in.fleet)}
	const lanes = 2
	for i := 0; i < lanes; i++ {
		n := nodes[i%len(nodes)]
		half := in.fleet[i*len(in.fleet)/lanes : (i+1)*len(in.fleet)/lanes]
		r.lanes = append(r.lanes, &lane{
			c: dial(w, n, 1), ring: newDeviceRing(half), name: fmt.Sprint(i),
		})
	}
	if w.federated {
		for _, n := range nodes {
			r.paced = append(r.paced, dial(w, n, 1))
		}
	} else {
		r.paced = []client.API{dial(w, nodes[0], 2)}
	}
	// Federation members schedule independently, so each gets the job set.
	for i := range nodes {
		l := r.lanes[i]
		for _, spec := range in.setupJobs {
			l.attempted++
			if _, err := l.c.RegisterJob(spec); err != nil {
				r.close()
				return nil, 0, fmt.Errorf("register set-up job: %w", err)
			}
			l.jobs++
		}
	}
	r.fleetPass(false)
	return r, time.Since(t0), nil
}

// fleetPass drives every lane once over its share of the fleet. Set-up runs
// it without the demand feeder, so that setup_s is the same work on every
// workload of a transport; the warm-up runs the workload's own traffic.
func (r *rig) fleetPass(feed bool) {
	r.eachLane(func(l *lane) {
		for k := 0; k < (l.ring.n+batch-1)/batch; k++ {
			l.step(feed)
		}
	})
}

// eachLane runs drive on every lane concurrently, flushes the lane's last
// reports, and waits for all of them.
func (r *rig) eachLane(drive func(*lane)) {
	var wg sync.WaitGroup
	for _, l := range r.lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			drive(l)
			l.flushReports()
		}(l)
	}
	wg.Wait()
}

// segment is one fixed-work slice of the capacity phase.
type segment struct {
	checkIns int64
	wall     time.Duration
	cpu      time.Duration // process CPU, user+sys
}

// runCapacity is phase 2, one segment of it: GOMAXPROCS=1, every lane in a
// closed loop for frames frames. The work is fixed: a slower build takes
// longer over the same frames.
func (r *rig) runCapacity(frames int) segment {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, l := range r.lanes {
		l.next = 0 // the segment starts on a demand-feeder boundary
	}
	before := r.clientCounts().checkIns
	cpu0, t0 := processCPU(), time.Now()
	r.eachLane(func(l *lane) {
		for k := 0; k < frames; k++ {
			l.step(r.w.demand)
		}
	})
	return segment{
		checkIns: r.clientCounts().checkIns - before,
		wall:     time.Since(t0),
		cpu:      processCPU() - cpu0,
	}
}

// runPacedPhase is phase 3: GOMAXPROCS=1, one open-loop sender over the whole
// fleet at fps frames a second. Only the check-in frame is timed; the reports
// of the devices it saw assigned, and the demand feeder's registrations,
// follow once the answer is stamped. It also returns the process CPU the
// phase used.
func (r *rig) runPacedPhase(frames, fps int) (*pacedStats, time.Duration) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := &lane{c: r.paced[0], name: "p"}
	if r.w.demand {
		l.registerDemand()
	}
	cpu0 := processCPU()
	st := runPaced(frames, time.Second/time.Duration(fps), func(frame int) time.Time {
		l.c = r.paced[frame%len(r.paced)]
		l.checkIn(r.whole.frame(frame))
		answered := time.Now()
		l.flushReports()
		if r.w.demand && frame%demandEvery == demandEvery-1 {
			l.registerDemand()
		}
		return answered
	})
	r.pacedCounts.add(l.counts)
	return st, processCPU() - cpu0
}

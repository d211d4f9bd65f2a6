package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"venn/internal/server"
	"venn/internal/stats"
)

// replayStepCap fails a replay whose jobs do not finish: at one batch a step
// it is dozens of fleet passes.
const replayStepCap = 50_000

// replayResult is the outcome of one scheduling replay under one policy.
type replayResult struct {
	avgJCT   float64 // simulated seconds, mean over all jobs
	jobs     int
	jobsDone int
	wall     time.Duration
	counts
}

// runReplay is phase 4 under one policy: fresh daemon(s) on a clock the bench
// owns, one closed-loop lane on the workload's transport, scripted jobs of
// descending demand cycling the four strata (all present from the start, so
// the serving order decides the completion times), supply trickled one batch
// per simulated second, and every assigned device reporting after a seeded
// simulated response time. It ends when every job has completed.
func runReplay(w workload, in *inputs, sc scale, policy string) (replayResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	epoch := time.Unix(1_700_000_000, 0)
	var simNs atomic.Int64
	clock := func() time.Time { return epoch.Add(time.Duration(simNs.Load())) }
	nodes, err := startNodes(w, managerConfig(policy, clock), false)
	if err != nil {
		return replayResult{}, err
	}
	defer closeNodes(nodes)

	res := replayResult{jobs: sc.replayJobs}
	l := &lane{ring: newDeviceRing(in.fleet)}
	for i, n := range nodes {
		c := dial(w, n, 1)
		defer c.Close()
		if i == 0 {
			l.c = c
		}
		// Federation members schedule independently: job i lives on member
		// i mod members, and is served by the devices that member owns.
		for j := i; j < sc.replayJobs; j += len(nodes) {
			l.attempted++
			if _, err := c.RegisterJob(server.JobSpec{
				Name:           fmt.Sprintf("replay-%d", j),
				Category:       strata[j%len(strata)],
				DemandPerRound: sc.replayBase * (sc.replayJobs - j),
				Rounds:         1,
			}); err != nil {
				return res, fmt.Errorf("replay: register job: %w", err)
			}
			l.jobs++
		}
	}

	resp := stats.NewRNG(in.replaySeed)
	due := make(map[int][]server.Report) // step -> reports that fall due at it
	t0 := time.Now()
	for step := 0; step < replayStepCap && res.jobsDone < res.jobs; step++ {
		simNs.Add(int64(time.Second))
		for _, n := range nodes {
			n.m.Tick()
		}
		l.pending = append(l.pending, due[step]...)
		delete(due, step)
		l.flushReports()
		l.checkIn(l.ring.frame(step))
		for _, r := range l.pending {
			r.DurationSeconds = resp.Uniform(sc.replayRespMin, sc.replayRespMax)
			at := step + int(math.Ceil(r.DurationSeconds))
			due[at] = append(due[at], r)
		}
		l.pending = l.pending[:0]
		res.jobsDone = 0
		for _, n := range nodes {
			res.jobsDone += n.m.StatsSnapshot().CompletedJobs
		}
	}
	res.wall = time.Since(t0)
	// A round completes on 80% of its responses; the stragglers still report
	// (the daemon acknowledges and ignores them), so no device is left busy.
	for _, rs := range due {
		l.pending = append(l.pending, rs...)
	}
	l.flushReports()
	res.counts = l.counts

	var sum float64
	for _, n := range nodes {
		for _, st := range n.m.Jobs() {
			if st.State == "done" {
				sum += st.JCTSeconds
			}
		}
	}
	if res.jobsDone > 0 {
		res.avgJCT = sum / float64(res.jobsDone)
	}
	// An unfinished job is a failed operation (its registration succeeded,
	// so it is already counted as attempted).
	res.failed += int64(res.jobs - res.jobsDone)
	return res, nil
}

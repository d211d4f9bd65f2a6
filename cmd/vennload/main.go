// Command vennload is the serving-path load generator for live daemons: it
// spins up N thousand synthetic device agents against a running venndaemon
// (or a whole federation of them), drives registered jobs to completion, and
// writes throughput, latency percentiles and the daemons' own counters to a
// JSON report. CI's bench job drives its smoke daemons with it and checks
// the reports with cmd/benchguard. The in-process throughput harness is
// bench/.
//
// -addr names the daemons, and client.New picks each one's transport from
// its address: a URL means HTTP, a bare host:port the stream protocol.
//
//	venndaemon -addr :8080 -stream-addr :8081 &
//	vennload -addr http://localhost:8080 -agents 2000 -duration 10s
//	vennload -addr localhost:8081 -agents 2000 -duration 10s
//
// More than one address is a federation run over the stream protocol, one
// lane of agents per member. Ring-aware clients (-topology, the default)
// send each item straight to its owner and label the run cluster-direct;
// seed-only clients (-topology=false) leave misrouted items to the daemons'
// forward path and label it cluster:
//
//	vennload -addr 10.0.0.1:8081,10.0.0.2:8081 -agents 2000 -duration 10s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"venn/cmd/internal/loadreport"
	"venn/internal/client"
	"venn/internal/hashring"
	"venn/internal/server"
	"venn/internal/stats"
)

func main() {
	var (
		addrs      = flag.String("addr", "", "comma-separated daemon addresses: a URL (http://host:8080) drives HTTP, a bare host:port the stream protocol; more than one is a federation run (stream only, one agent lane per member)")
		agents     = flag.Int("agents", 2000, "number of synthetic device agents")
		duration   = flag.Duration("duration", 10*time.Second, "load duration")
		batch      = flag.Int("batch", 64, "check-ins per batch request (1 sends batches of one)")
		conns      = flag.Int("conns", 0, "concurrent load workers (0 = 4x CPUs, capped at 64)")
		streamCns  = flag.Int("stream-conns", 0, "stream connections to multiplex workers over (0 = workers/2, min 1)")
		topology   = flag.Bool("topology", true, "ring-aware clients in federation runs: fetch the daemons' topology and send each batch item straight to its owner (false = seed-only clients, exercising the server-side forward path)")
		jobs       = flag.Int("jobs", 8, "CL jobs to register (per member in a federation run)")
		demand     = flag.Int("demand", 0, "demand per round (0 = auto-size to the fleet)")
		demandFrac = flag.Float64("demand-frac", 0, "demand-heavy mode: keep job arrivals flowing so roughly this fraction of check-ins wins an assignment (0 disables; run the daemons with -daily-budget=false so the contention is sustained)")
		rounds     = flag.Int("rounds", 1, "rounds per job")
		category   = flag.String("category", "", "pin every job to one requirement category (default: cycle the standard strata)")
		seed       = flag.Int64("seed", 1, "random seed for the synthetic fleet")
		out        = flag.String("out", "", "write a JSON report to this file")
		pprofSrv   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the load run to this file")
	)
	flag.Parse()

	if *addrs == "" {
		fmt.Fprintln(os.Stderr, "vennload: -addr is required (a daemon URL or stream host:port; several stream addresses for a federation)")
		os.Exit(2)
	}
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "vennload: -batch %d must be at least 1\n", *batch)
		os.Exit(2)
	}
	if *demandFrac < 0 || *demandFrac > 1 {
		fmt.Fprintf(os.Stderr, "vennload: -demand-frac %v out of range [0,1]\n", *demandFrac)
		os.Exit(2)
	}
	if *conns <= 0 {
		*conns = 4 * runtime.NumCPU()
		if *conns > 64 {
			*conns = 64
		}
	}
	if *pprofSrv != "" {
		go func() {
			if err := http.ListenAndServe(*pprofSrv, nil); err != nil {
				fmt.Fprintln(os.Stderr, "vennload: pprof server:", err)
			}
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vennload: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vennload: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}

	members := strings.Split(*addrs, ",")
	cfg := loadConfig{
		Batch: *batch, Agents: *agents, Conns: *conns, StreamConns: *streamCns,
		Duration: *duration, Jobs: *jobs, Demand: *demand, DemandFrac: *demandFrac,
		Rounds: *rounds, Category: *category, Seed: *seed,
		Topology: *topology && len(members) > 1,
	}
	lanes := make([]lane, len(members))
	for i, addr := range members {
		lanes[i] = lane{name: addr, c: newClient(addr, cfg)}
	}
	cfg.Transport = transportOf(lanes[0].c)
	cfg.Mode = modeName(cfg.Transport)
	if len(lanes) > 1 {
		for _, l := range lanes {
			if transportOf(l.c) != client.TransportStream {
				fmt.Fprintf(os.Stderr, "vennload: a federation run drives stream addresses (host:port), not %s\n", l.name)
				os.Exit(2)
			}
		}
		cfg.Mode = "cluster"
		if cfg.Topology {
			cfg.Mode = "cluster-direct"
		}
	}

	report := loadreport.Report{
		Schema:    loadreport.Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		UnixTime:  time.Now().Unix(),
		Runs:      []loadreport.Run{runLoad(lanes, cfg)},
	}

	if *out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vennload: write report:", err)
			os.Exit(1)
		}
		fmt.Println("report written to", *out)
	}
}

// modeName labels a single-daemon run by its transport: every run sends
// batches, so HTTP is "batched" whatever -batch is.
func modeName(transport string) string {
	if transport == client.TransportStream {
		return "stream"
	}
	return "batched"
}

// feedInterval is how often a lane's demand feeder re-sizes open demand
// against the observed check-in rate.
const feedInterval = 100 * time.Millisecond

type loadConfig struct {
	Mode        string
	Transport   string // client.TransportHTTP | client.TransportStream, as client.New inferred it
	Batch       int
	Agents      int
	Conns       int
	StreamConns int  // 0 = Conns/2, min 1
	Topology    bool // ring-aware clients (federation runs): route items to owners directly
	Duration    time.Duration
	Jobs        int
	Demand      int
	DemandFrac  float64 // demand-heavy mode: target assignment fraction of check-ins (0 = surplus traffic)
	Rounds      int
	Category    string // "" cycles the standard strata
	Seed        int64
}

func (cfg loadConfig) streamPool() int {
	if cfg.StreamConns > 0 {
		return cfg.StreamConns
	}
	n := cfg.Conns / 2
	if n < 1 {
		n = 1
	}
	return n
}

// jainIndex is Jain's fairness index (Σx)²/(n·Σx²) over per-job JCTs: 1.0
// when every job waits equally, approaching 1/n as one job absorbs all the
// delay.
func jainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// newClient builds the client for one daemon address. client.New infers the
// transport from the address; the options that do not apply to it are
// ignored.
func newClient(addr string, cfg loadConfig) client.API {
	tr := &http.Transport{
		MaxIdleConns:        2 * cfg.Conns,
		MaxIdleConnsPerHost: 2 * cfg.Conns,
	}
	return client.New(addr,
		client.WithHTTPClient(&http.Client{Transport: tr}),
		client.WithRetries(2),
		client.WithStreamConns(cfg.streamPool()),
		client.WithTimeout(30*time.Second),
		client.WithTopology(cfg.Topology))
}

// transportOf names the transport client.New picked for c.
func transportOf(c client.API) string {
	if _, ok := c.(*client.StreamClient); ok {
		return client.TransportStream
	}
	return client.TransportHTTP
}

// lane is one load target: a named client (a single daemon, or one member
// of a federation) that a share of the workers drives.
type lane struct {
	name string
	c    client.API
}

// laneStat is one lane's live counters, shared between its workers and (in
// demand-heavy mode) its demand feeder.
type laneStat struct {
	checkIns atomic.Int64
	assigns  atomic.Int64
	errs     atomic.Int64
}

// demandFeeder keeps one lane demand-heavy: every feedInterval it measures
// the lane's check-in rate and registers a one-round filler job sized so
// that roughly cfg.DemandFrac of check-ins keeps winning an assignment.
// Open demand is consumed greedily at the check-in rate, so the feeder
// tops outstanding demand up to exactly one interval's worth — more would
// overshoot the fraction, not smooth it. While any demand is open every
// check-in commits through the scheduler core, so the fraction governs
// assignment (and report) volume, not which path check-ins take. Filler
// jobs are not part of the scripted job set, so the end-of-run completion
// poll ignores them.
func demandFeeder(c client.API, ls *laneStat, cfg loadConfig, li int, stop <-chan struct{}) {
	cat := cfg.Category
	if cat == "" {
		cat = "General"
	}
	t := time.NewTicker(feedInterval)
	defer t.Stop()
	var registered, prevCI int64
	seq := 0
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		ci := ls.checkIns.Load()
		dCI := ci - prevCI
		prevCI = ci
		want := int64(cfg.DemandFrac * float64(dCI))
		if want < 1 {
			want = 1
		}
		// Assignments against the scripted jobs inflate the lane's assign
		// counter by their (small, fixed) total demand; the resulting
		// under-count of outstanding feeder demand is a bounded constant
		// that the next top-up absorbs.
		outstanding := registered - ls.assigns.Load()
		if need := want - outstanding; need > 0 {
			if _, err := c.RegisterJob(server.JobSpec{
				Name:           fmt.Sprintf("feed-%d-%d", li, seq),
				Category:       cat,
				DemandPerRound: int(need),
				Rounds:         1,
			}); err != nil {
				continue // a register hiccup only delays the next top-up
			}
			registered += need
			seq++
		}
	}
}

// runLoad drives one load run through the given lanes. Workers are spread
// across lanes round-robin; each worker drives a disjoint slice of the
// fleet through its lane's client, so a device always checks in via the
// same member (its reports then chase its assignments to the same owner).
func runLoad(lanes []lane, cfg loadConfig) loadreport.Run {
	// Every lane needs at least one worker driving a non-empty fleet slice,
	// or an undriven member's jobs never complete and its forward counters
	// stay zero (which the CI federation gate would read as a broken
	// cluster). Workers beyond the agent count would get empty slices and
	// skip out, so bound conns by agents first; that makes agents >= lanes
	// a hard requirement.
	if cfg.Agents < len(lanes) {
		fmt.Fprintf(os.Stderr, "vennload: -agents %d is fewer than the %d federation members; every member needs at least one agent\n",
			cfg.Agents, len(lanes))
		os.Exit(2)
	}
	if cfg.Conns > cfg.Agents {
		cfg.Conns = cfg.Agents
	}
	if cfg.Conns < len(lanes) {
		cfg.Conns = len(lanes)
	}
	// Reachability probe; the metrics reply also names the serving policy.
	var activePolicy string
	for _, l := range lanes {
		mt, err := l.c.Metrics()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vennload: daemon %s unreachable: %v\n", l.name, err)
			os.Exit(1)
		}
		if mt.PolicyPrimary != "" {
			activePolicy = mt.PolicyPrimary
		}
	}

	// Register the CL jobs — one set per lane, since federation members run
	// independent schedulers. Auto demand keeps total required responses
	// well under the fleet's one-task-per-day capacity so every job can
	// finish within the run.
	demand := cfg.Demand
	if demand <= 0 {
		demand = cfg.Agents / (4 * cfg.Jobs * cfg.Rounds * len(lanes))
		if demand < 1 {
			demand = 1
		}
	}
	categories := []string{"General", "General", "Compute-Rich", "Memory-Rich", "High-Perf"}
	if cfg.Category != "" {
		categories = []string{cfg.Category}
	}
	laneJobs := make([][]int, len(lanes))
	for li, l := range lanes {
		for i := 0; i < cfg.Jobs; i++ {
			st, err := l.c.RegisterJob(server.JobSpec{
				Name:           fmt.Sprintf("load-job-%d-%d", li, i),
				Category:       categories[i%len(categories)],
				DemandPerRound: demand,
				Rounds:         cfg.Rounds,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "vennload: register job:", err)
				os.Exit(1)
			}
			laneJobs[li] = append(laneJobs[li], st.ID)
		}
	}
	jobsTotal := cfg.Jobs * len(lanes)

	// Synthesize the fleet.
	rng := stats.NewRNG(cfg.Seed)
	type dev struct {
		id       string
		cpu, mem float64
	}
	fleet := make([]dev, cfg.Agents)
	for i := range fleet {
		fleet[i] = dev{
			id:  fmt.Sprintf("load-%06d", i),
			cpu: rng.Float64(),
			mem: rng.Float64(),
		}
	}

	// Ring-aware fleets converge on device→owner affinity: each lane's
	// workers drive the slice of the fleet that lane's member owns, so
	// batches arrive full-size at their owner instead of being split per
	// owner inside the client. Lane names are the members' stream addresses
	// (their default node IDs), so the same ring the daemons derive from
	// -peers is reproducible here. Misalignment is harmless — the
	// ring-aware client still partitions whatever it is handed — so a
	// daemon running custom -node-id or -vnodes only costs the affinity,
	// not correctness.
	var laneFleet [][]dev
	if cfg.Topology {
		members := make([]string, len(lanes))
		laneIdx := make(map[string]int, len(lanes))
		for i, l := range lanes {
			members[i] = l.name
			laneIdx[l.name] = i
		}
		ring := hashring.New(members, 0)
		byLane := make([][]dev, len(lanes))
		for _, d := range fleet {
			li := laneIdx[ring.Owner(d.id)]
			byLane[li] = append(byLane[li], d)
		}
		laneFleet = byLane
		for _, part := range byLane {
			if len(part) == 0 {
				// A member owning zero devices would go undriven; keep the
				// round-robin spread instead.
				laneFleet = nil
				break
			}
		}
	}

	var (
		checkIns    atomic.Int64
		assignments atomic.Int64
		reports     atomic.Int64
		errs        atomic.Int64
		laneStats   = make([]laneStat, len(lanes))

		latMu     sync.Mutex
		latencies []float64
		servedBy  = make(map[string]int64) // assignments by wire policy attribution
	)
	const maxLatSamplesPerWorker = 100_000

	fmt.Printf("run %q: %s transport, %d agents, %d conns, batch %d, %v, %d daemon(s)\n",
		cfg.Mode, cfg.Transport, cfg.Agents, cfg.Conns, cfg.Batch, cfg.Duration, len(lanes))

	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		li := w % len(lanes)
		pool := fleet
		lo := w * len(fleet) / cfg.Conns
		hi := (w + 1) * len(fleet) / cfg.Conns
		if laneFleet != nil {
			// Affinity mode: split this lane's owned devices across the
			// workers driving this lane.
			pool = laneFleet[li]
			perLane := (cfg.Conns - li + len(lanes) - 1) / len(lanes)
			wi := w / len(lanes)
			lo = wi * len(pool) / perLane
			hi = (wi + 1) * len(pool) / perLane
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(c client.API, ls *laneStat, mine []dev, taskRNG *stats.RNG) {
			defer wg.Done()
			local := make([]float64, 0, 4096)
			localServed := make(map[string]int64)
			record := func(d time.Duration) {
				if len(local) < maxLatSamplesPerWorker {
					local = append(local, float64(d)/float64(time.Millisecond))
				}
			}
			// A batch larger than this worker's fleet slice would carry
			// duplicate devices whose reservations reject each other.
			batchSize := min(cfg.Batch, len(mine))
			next := 0
			pendingReports := make([]server.Report, 0, batchSize)
			for time.Now().Before(deadline) {
				cis := make([]server.CheckIn, 0, batchSize)
				for len(cis) < batchSize {
					d := mine[next%len(mine)]
					next++
					cis = append(cis, server.CheckIn{DeviceID: d.id, CPU: d.cpu, Mem: d.mem})
				}
				t0 := time.Now()
				results, err := c.CheckInBatch(cis)
				record(time.Since(t0))
				if err != nil {
					errs.Add(1)
					ls.errs.Add(1)
					continue
				}
				pendingReports = pendingReports[:0]
				served := 0
				for i, res := range results {
					if res.Error != "" {
						// Per-item rejection (e.g. a still-busy
						// device): not a served check-in — counting
						// it would flatter the batched throughput.
						errs.Add(1)
						ls.errs.Add(1)
						continue
					}
					served++
					if !res.Assigned {
						continue
					}
					assignments.Add(1)
					ls.assigns.Add(1)
					localServed[res.Policy]++
					pendingReports = append(pendingReports, server.Report{
						DeviceID:        cis[i].DeviceID,
						JobID:           res.JobID,
						OK:              !taskRNG.Bool(0.05),
						DurationSeconds: 10 + 50*taskRNG.Float64(),
					})
				}
				checkIns.Add(int64(served))
				ls.checkIns.Add(int64(served))
				if len(pendingReports) > 0 {
					if _, err := c.ReportBatch(pendingReports); err != nil {
						errs.Add(1)
						ls.errs.Add(1)
					} else {
						reports.Add(int64(len(pendingReports)))
					}
				}
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			for p, n := range localServed {
				servedBy[p] += n
			}
			latMu.Unlock()
		}(lanes[li].c, &laneStats[li], pool[lo:hi], rng.Fork())
	}
	// Demand-heavy mode: one feeder per lane keeps fresh job arrivals
	// flowing for as long as the workers run.
	feedStop := make(chan struct{})
	var feedWG sync.WaitGroup
	if cfg.DemandFrac > 0 {
		for li := range lanes {
			feedWG.Add(1)
			go func(li int) {
				defer feedWG.Done()
				demandFeeder(lanes[li].c, &laneStats[li], cfg, li, feedStop)
			}(li)
		}
	}
	wg.Wait()
	close(feedStop)
	feedWG.Wait()
	elapsed := time.Since(start)

	// Give in-flight rounds a moment to drain, then count completions and
	// collect per-job JCTs. Unfinished jobs are censored at the elapsed
	// wall-clock so a policy cannot flatter its average by stranding work.
	jobsDone := 0
	laneDone := make([]int, len(lanes))
	var jcts []float64
	for waited := time.Duration(0); waited < 3*time.Second; waited += 200 * time.Millisecond {
		jobsDone = 0
		jcts = jcts[:0]
		for li, l := range lanes {
			laneDone[li] = 0
			for _, id := range laneJobs[li] {
				st, err := l.c.JobStatus(id)
				if err != nil {
					continue
				}
				if st.State == "done" {
					laneDone[li]++
					jcts = append(jcts, st.JCTSeconds)
				} else {
					jcts = append(jcts, time.Since(start).Seconds())
				}
			}
			jobsDone += laneDone[li]
		}
		if jobsDone == jobsTotal {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	res := loadreport.Run{
		Mode:            cfg.Mode,
		Transport:       cfg.Transport,
		Policy:          activePolicy,
		DemandFrac:      cfg.DemandFrac,
		ServedByPolicy:  servedBy,
		Agents:          cfg.Agents,
		Conns:           cfg.Conns,
		Batch:           cfg.Batch,
		DurationSeconds: elapsed.Seconds(),
		CheckIns:        checkIns.Load(),
		CheckInsPerSec:  float64(checkIns.Load()) / elapsed.Seconds(),
		Assignments:     assignments.Load(),
		Reports:         reports.Load(),
		Errors:          errs.Load(),
		JobsTotal:       jobsTotal,
		JobsDone:        jobsDone,
	}
	if cfg.Transport == client.TransportStream {
		res.StreamConns = cfg.streamPool()
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		res.RequestLatencyMs = loadreport.Percentiles{
			Mean: stats.Mean(latencies),
			P50:  stats.PercentileSorted(latencies, 50),
			P90:  stats.PercentileSorted(latencies, 90),
			P99:  stats.PercentileSorted(latencies, 99),
			Max:  latencies[len(latencies)-1],
		}
	}
	if len(jcts) > 0 {
		sort.Float64s(jcts)
		res.JCTAvgSeconds = stats.Mean(jcts)
		res.JCTP90Seconds = stats.PercentileSorted(jcts, 90)
		res.JCTJainFairness = jainIndex(jcts)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "  [%s] %d check-ins in %.2fs = %.0f/s; %d assigned, %d reported, %d errors, %d/%d jobs done (req p50 %.3fms p99 %.3fms)\n",
		cfg.Mode, res.CheckIns, res.DurationSeconds, res.CheckInsPerSec, res.Assignments,
		res.Reports, res.Errors, res.JobsDone, res.JobsTotal,
		res.RequestLatencyMs.P50, res.RequestLatencyMs.P99)
	if res.Policy != "" {
		fmt.Fprintf(&b, "  policy %s", res.Policy)
		if len(res.ServedByPolicy) > 0 {
			fmt.Fprintf(&b, "; served by policy:")
			for _, p := range sortedKeys(res.ServedByPolicy) {
				fmt.Fprintf(&b, " %s=%d", p, res.ServedByPolicy[p])
			}
		}
		if len(jcts) > 0 {
			fmt.Fprintf(&b, "; jct avg %.2fs p90 %.2fs jain %.3f", res.JCTAvgSeconds, res.JCTP90Seconds, res.JCTJainFairness)
		}
		b.WriteByte('\n')
	}

	if len(lanes) > 1 {
		// Per-member rows: lane-side throughput plus the member's own
		// federation counters from /v1/metrics.
		for li, l := range lanes {
			nr := loadreport.Node{
				Node:           l.name,
				CheckIns:       laneStats[li].checkIns.Load(),
				CheckInsPerSec: float64(laneStats[li].checkIns.Load()) / elapsed.Seconds(),
				Errors:         laneStats[li].errs.Load(),
				JobsDone:       laneDone[li],
			}
			// A member that died mid-run (chaos smoke) answers no metrics;
			// its lane still reports client-side counts with zeroed
			// federation counters.
			if mt, err := l.c.Metrics(); err == nil {
				nr.ClusterTelemetry = mt.ClusterTelemetry
			}
			res.Nodes = append(res.Nodes, nr)
			fmt.Fprintf(&b, "    node %s: %.0f checkins/s, fwd out %d / in %d (errors %d, fallbacks %d), direct %d, topo epoch %d (%d pushes), fwd bytes out %d / in %d, %d jobs done\n",
				nr.Node, nr.CheckInsPerSec, nr.ClusterForwardsOut, nr.ClusterForwardsIn,
				nr.ClusterForwardErrors, nr.ClusterLocalFallbacks, nr.DirectRoutedBatches,
				nr.TopologyEpoch, nr.TopologyPushes, nr.ForwardBytesOut, nr.ForwardBytesIn, nr.JobsDone)
		}
	} else if mt, err := lanes[0].c.Metrics(); err == nil {
		res.ServerMetrics = &mt
		res.Shards = mt.Shards
		if mt.PlanRebuilds+mt.PlanPatches > 0 {
			fmt.Fprintf(&b, "  plan: %d rebuilds, %d patches (incremental hit rate %.1f%%); %d/%d check-ins lock-free\n",
				mt.PlanRebuilds, mt.PlanPatches, 100*mt.PlanIncrementalHitRate,
				mt.LockFreeCheckIns, mt.CheckIns)
		}
		if mt.StreamFramesIn > 0 {
			fmt.Fprintf(&b, "  stream: %d conns, %d frames in, %d frames out\n",
				mt.StreamConns, mt.StreamFramesIn, mt.StreamFramesOut)
		}
		// Per-stage p99 of the check-in batches' sampled spans (1 in
		// obs_sample_every requests), in canonical stage order.
		if stages := mt.RequestStageNs[server.RouteCheckInBatch]; len(stages) > 0 {
			fmt.Fprintf(&b, "  stages (%s p99, 1/%d sampled):", server.RouteCheckInBatch, mt.ObsSampleEvery)
			for _, st := range []string{"read", "decode", "queue_wait", "apply", "hop", "encode", "write"} {
				if s, ok := stages[st]; ok && s.Count > 0 {
					fmt.Fprintf(&b, " %s=%s", st, time.Duration(s.P99).Round(100*time.Nanosecond))
				}
			}
			b.WriteByte('\n')
		}
	}
	fmt.Print(b.String())
	return res
}

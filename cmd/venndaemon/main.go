// Command venndaemon runs Venn as a live resource manager (the standalone
// service of the paper's Figure 6). CL jobs register resource requests,
// devices check in as they become available, and the daemon assigns each
// device to a job using the IRS scheduling and tier-based matching
// algorithms.
//
// Usage:
//
//	venndaemon -addr :8080 -stream-addr :8081 -tiers 3 -epsilon 0
//
// HTTP API:
//
//	POST /v1/jobs           {"name":"kbd","category":"General","demand_per_round":100,"rounds":50}
//	POST /v1/checkin/batch  {"checkins":[{"device_id":"phone-1","cpu":0.8,"mem":0.7}]}
//	POST /v1/report/batch   {"reports":[{"device_id":"phone-1","job_id":0,"ok":true,"duration_seconds":42}]}
//	GET  /v1/jobs, /v1/jobs/{id}, /v1/metrics, /v1/healthz, /metrics
//
// Policies: -policy selects the scheduler by name (venn, fifo, srsf, random;
// fifo is the paper's FIFO baseline; see the README's Policies section).
// -seed fixes the scheduling RNG for reproducible replays.
//
// Stream API: -stream-addr opens a persistent binary framed listener
// (internal/transport) carrying the same operations over pipelined frames;
// high-volume agents should prefer it (see the README's Transports
// section). Both transports drive one scheduler core. The stream listener
// is one plain TCP listener: connections are persistent, so each is
// accepted once and served by its own goroutine, and a second daemon on the
// same -stream-addr fails to bind. The protocol has one version (see the
// README's Wire protocol section).
//
// Federation: -peers federates this daemon with others into one serving
// fleet (see the README's Federation section). Device ownership is sharded
// across the members by a consistent-hash ring and misrouted check-ins or
// reports are forwarded to their owner over the stream protocol, so agents
// may talk to any member:
//
//	venndaemon -addr :8080 -stream-addr 10.0.0.1:8081 \
//	    -peers 10.0.0.1:8081,10.0.0.2:8081,10.0.0.3:8081
//
// Every member must be configured with the same -peers set; a member
// identifies its own entry by -node-id (default: the -stream-addr value).
//
// Shutdown: SIGINT/SIGTERM first stops originating new forwards (requests
// apply locally instead), then drains both listeners — in-flight requests,
// including forwarded frames, complete (bounded grace) — and finally closes
// the peer stream clients before the process exits.
//
// Profiling: -pprof serves net/http/pprof on a side listener and
// -cpuprofile records a CPU profile until shutdown, so perf work can
// attribute serving-path time without ad-hoc patches; -mutexprofile and
// -blockprofile capture lock-contention and goroutine-blocking profiles at
// shutdown, the natural lenses on the core mutex.
//
// Core commit: each scheduler-core mutation commits in one section under
// the core mutex (see the README's Core commit pipeline section).
// -daily-budget=false lifts the one-task-per-day device budget for
// sustained-demand benchmarking.
//
// Observability: every request feeds always-on per-op latency histograms,
// and -obs-sample (1 in N, default 64) attaches per-stage spans that land
// in /v1/metrics request_stage_ns, GET /v1/debug/flight (the flight
// recorder), and the GET /metrics Prometheus exposition. GET /v1/healthz
// answers 200/503 for probes, and -log-metrics writes a one-line serving
// summary to stderr at the given interval (see the README's Observability
// section).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"venn/internal/cluster"
	"venn/internal/core"
	"venn/internal/sched"
	"venn/internal/server"
	"venn/internal/transport"
)

// mutexProfileFraction samples 1 in N mutex contention events for
// -mutexprofile; blockProfileRateNs records one sample per N ns of
// goroutine blocking for -blockprofile.
const (
	mutexProfileFraction = 100
	blockProfileRateNs   = 10_000
)

// sample is one telemetry snapshot and the time it was taken; the
// -log-metrics rates are the counter differences between two of them.
type sample struct {
	at time.Time
	mt server.Metrics
}

// metricsLine renders the -log-metrics one-line serving summary: check-in
// and report rates since prev, the worst per-stage p99 across ops (sampled
// spans), and federation counters when clustered. It reads h before it takes
// a snapshot, because a wedged core holds the mutex the snapshot needs: an
// unhealthy line is built from h alone. A healthy line advances prev to the
// new snapshot.
func metricsLine(h server.HealthStatus, snapshot func() server.Metrics, prev *sample, now time.Time) string {
	if !h.OK {
		return fmt.Sprintf("UNHEALTHY(%s) core_held=%s", h.Detail,
			time.Duration(h.CoreHeldSeconds*float64(time.Second)).Round(time.Millisecond))
	}
	cur := sample{at: now, mt: snapshot()}
	mt := cur.mt
	rate := func(d int64) float64 {
		if dt := cur.at.Sub(prev.at).Seconds(); dt > 0 {
			return float64(d) / dt
		}
		return 0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checkins/s=%.0f reports/s=%.0f devices=%d busy=%d",
		rate(mt.CheckIns-prev.mt.CheckIns), rate(mt.Reports-prev.mt.Reports), mt.KnownDevices, mt.BusyDevices)
	*prev = cur
	worst := map[string]float64{}
	for _, byStage := range mt.RequestStageNs {
		for st, s := range byStage {
			if s.P99 > worst[st] {
				worst[st] = s.P99
			}
		}
	}
	for _, st := range []string{"read", "decode", "queue_wait", "apply", "hop", "encode", "write"} {
		if v, ok := worst[st]; ok {
			fmt.Fprintf(&b, " p99_%s=%s", st, time.Duration(v).Round(time.Microsecond))
		}
	}
	if mt.ClusterNodeID != "" {
		fmt.Fprintf(&b, " fwd_out=%d fwd_in=%d fwd_err=%d peers_up=%d/%d",
			mt.ClusterForwardsOut, mt.ClusterForwardsIn, mt.ClusterForwardErrors,
			mt.ClusterPeersUp, mt.ClusterPeersUp+mt.ClusterPeersDown)
	}
	return b.String()
}

// writeProfile dumps a named runtime profile ("mutex", "block") to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "venndaemon: "+name+" profile:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "venndaemon: "+name+" profile:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "venndaemon: "+name+" profile written to", path)
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		streamAddr  = flag.String("stream-addr", "", "binary stream listen address (empty disables)")
		polName     = flag.String("policy", "venn", "scheduling policy: "+strings.Join(sched.Names, ", "))
		seed        = flag.Int64("seed", 0, "scheduling RNG seed (0 = clock-derived; fix it for reproducible replays)")
		tiers       = flag.Int("tiers", 3, "device-tier granularity V")
		epsilon     = flag.Float64("epsilon", 0, "fairness knob")
		shards      = flag.Int("shards", 0, "device-state lock shards (0 = default)")
		dailyBudget = flag.Bool("daily-budget", true, "enforce the one-task-per-device-day budget (false lifts it, for sustained-demand benchmarking)")
		deviceTTL   = flag.Duration("device-ttl", 24*time.Hour, "evict devices not seen for this long (0 disables)")
		peers       = flag.String("peers", "", "comma-separated stream addresses of every cluster member (enables federation; requires -stream-addr)")
		nodeID      = flag.String("node-id", "", "this node's member ID in -peers (default: the -stream-addr value)")
		obsSample   = flag.Int("obs-sample", 0, "request-span sampling: 1 in N requests gets a per-stage span (0 = default 64, negative disables spans)")
		logMetrics  = flag.Duration("log-metrics", 0, "log a one-line serving summary to stderr at this interval (0 disables)")
		pprofSrv    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile here until shutdown")
		mutexProf   = flag.String("mutexprofile", "", "write a mutex contention profile here at shutdown")
		blockProf   = flag.String("blockprofile", "", "write a goroutine blocking profile here at shutdown")
	)
	flag.Parse()

	if *pprofSrv != "" {
		go func() {
			if err := http.ListenAndServe(*pprofSrv, nil); err != nil {
				fmt.Fprintln(os.Stderr, "venndaemon: pprof server:", err)
			}
		}()
	}
	// stopProfile flushes every requested profile; idempotent so it can run
	// both on the normal return path (defer) and right before the error-path
	// os.Exit, which would skip deferred calls.
	stopProfile := func() {}
	var flushes []func()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "venndaemon: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "venndaemon: cpuprofile:", err)
			os.Exit(1)
		}
		flushes = append(flushes, func() {
			pprof.StopCPUProfile()
			_ = f.Close()
			fmt.Fprintln(os.Stderr, "venndaemon: CPU profile written to", *cpuProf)
		})
	}
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(mutexProfileFraction)
		flushes = append(flushes, func() { writeProfile("mutex", *mutexProf) })
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(blockProfileRateNs)
		flushes = append(flushes, func() { writeProfile("block", *blockProf) })
	}
	if len(flushes) > 0 {
		stopProfile = sync.OnceFunc(func() {
			for _, flush := range flushes {
				flush()
			}
		})
		defer stopProfile()
	}

	// ctx ends on SIGINT/SIGTERM; both transports then drain in-flight
	// requests before main returns (and the deferred profile flushes).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if _, ok := sched.ByName(*polName, core.Options{}); !ok {
		fmt.Fprintf(os.Stderr, "venndaemon: unknown -policy %q (have: %s)\n", *polName, strings.Join(sched.Names, ", "))
		stopProfile()
		os.Exit(1)
	}

	m := server.NewManager(server.Config{
		Options:            core.Options{Tiers: *tiers, Epsilon: *epsilon},
		Policy:             *polName,
		Seed:               *seed,
		Shards:             *shards,
		DeviceTTL:          *deviceTTL,
		DisableDailyBudget: !*dailyBudget,
		ObsSampleEvery:     *obsSample,
	})

	var streamFailed atomic.Bool
	var streamSrv *transport.Server
	if *streamAddr != "" {
		streamSrv = transport.NewServer(m, transport.Options{})
		go func() {
			if err := streamSrv.ListenAndServe(*streamAddr); err != nil && !errors.Is(err, transport.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "venndaemon: stream listener:", err)
				streamFailed.Store(true)
				cancel() // take the HTTP side down too
			}
		}()
	}

	var clu *cluster.Cluster
	if *peers != "" {
		if *streamAddr == "" {
			fmt.Fprintln(os.Stderr, "venndaemon: -peers requires -stream-addr (peers forward over the stream protocol)")
			stopProfile()
			os.Exit(1)
		}
		self := *nodeID
		if self == "" {
			self = *streamAddr
		}
		var err error
		clu, err = cluster.New(m, cluster.Config{
			SelfID: self,
			Peers:  strings.Split(*peers, ","),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "venndaemon:", err)
			stopProfile()
			os.Exit(1)
		}
		// Shutdown ordering, step 1: the moment the signal lands, stop
		// originating new forwards so the listener drain below never races
		// fresh frames onto peer connections about to close.
		go func() {
			<-ctx.Done()
			clu.BeginDrain()
		}()
	}

	if *logMetrics > 0 {
		go func() {
			tick := time.NewTicker(*logMetrics)
			defer tick.Stop()
			prev := sample{at: time.Now(), mt: m.MetricsSnapshot()}
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-tick.C:
					fmt.Fprintln(os.Stderr, "venndaemon: "+metricsLine(m.Health(), m.MetricsSnapshot, &prev, now))
				}
			}
		}()
	}

	fmt.Printf("venndaemon listening on %s (policy=%s tiers=%d epsilon=%.1f shards=%d device-ttl=%v", *addr,
		m.PolicyName(), *tiers, *epsilon, m.MetricsSnapshot().Shards, *deviceTTL)
	if !*dailyBudget {
		fmt.Printf(" daily-budget=off")
	}
	if *streamAddr != "" {
		fmt.Printf(" stream=%s", *streamAddr)
	}
	if *obsSample != 0 {
		fmt.Printf(" obs-sample=%d", *obsSample)
	}
	if clu != nil {
		fmt.Printf(" federation=%s", clu)
	}
	fmt.Println(")")

	err := server.Serve(ctx, *addr, m, server.HandlerConfig{})
	// Step 2: drain the stream listener — in-flight frames, forwarded ones
	// included, are answered before their connections close.
	if streamSrv != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		if serr := streamSrv.Shutdown(sctx); serr != nil {
			fmt.Fprintln(os.Stderr, "venndaemon: stream shutdown:", serr)
		}
		scancel()
	}
	// Step 3: with no new forwards and the listeners drained, wait out any
	// forwards still in flight and close the peer stream clients.
	if clu != nil {
		_ = clu.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "venndaemon:", err)
	}
	if err != nil || streamFailed.Load() {
		stopProfile()
		os.Exit(1)
	}
}

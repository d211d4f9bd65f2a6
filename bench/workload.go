package main

import (
	"fmt"
	"math"

	"venn/internal/server"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
)

// batch is the number of check-ins per frame, everywhere.
const batch = 64

// Demand-heavy traffic: every demandEvery-th frame of a lane registers a job
// sized to demandFrac of the check-ins of its next demandEvery frames.
const (
	demandEvery = 16
	demandFrac  = 0.40
)

// workload is one traffic mix. The names are fixed: later issues cite them.
type workload struct {
	name      string
	why       string
	transport string // "stream" (v2 binary frames) or "http" (POST /v1/checkin/batch)
	federated bool   // two daemons, seed-only clients
	demand    bool   // frame-count-driven job arrivals; assigned devices report in the next frame
	// capFrames is the number of frames each lane sends per capacity segment,
	// a multiple of demandEvery, sized so a segment takes a little over 1.5 s
	// at the commit that defined the benchmark. It is work, not time: a
	// slower build takes longer over the same frames.
	capFrames int
}

var workloads = []workload{
	{
		name:      "surplus-stream",
		why:       "v2 stream, no open demand: transport, bincodec and the lock-free registry/snapshot probe do the work, core none",
		transport: "stream", capFrames: 19200,
	},
	{
		name:      "demand-stream",
		why:       "same stream with 40% of check-ins assigned: adds the combiner, core assign/plan/report and registry writes",
		transport: "stream", demand: true, capFrames: 11200,
	},
	{
		name:      "http-json",
		why:       "surplus traffic over POST /v1/checkin/batch: net/http and the hand-rolled JSON codec dominate, transport idle",
		transport: "http", capFrames: 6400,
	},
	{
		name:      "federated-forward",
		why:       "two daemons, seed-only clients: half of every batch crosses the cluster relay and the hash ring",
		transport: "stream", federated: true, capFrames: 10880,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes one run. Everything is a count of operations, never a duration,
// so two commits do identical work.
type scale struct {
	devices       int
	rigs          int // set-ups a run makes; each is measured (one capacity and one paced segment), then closed
	capFrameDiv   int // divides workload.capFrames (smoke runs)
	pacedFrames   int // frames per paced segment
	pacedFPS      int
	walkFrames    int
	replayJobs    int
	replayBase    int     // replay job i of n demands replayBase*(n-i) devices
	replayRespMin float64 // simulated response time bounds, seconds
	replayRespMax float64
	simRun        bool // run the offline-engine probe (trace runs)
}

// fullScale is the benchmark as BENCHMARK.json runs it: eight set-ups, and on
// each one capacity segment and one paced segment of 2,000 frames.
func fullScale() scale {
	return scale{
		devices: 100_000, rigs: 8,
		capFrameDiv: 1,
		pacedFrames: 2000, pacedFPS: 2000,
		walkFrames: 20_000,
		replayJobs: 24, replayBase: 200, replayRespMin: 10, replayRespMax: 60,
		simRun: true,
	}
}

// smokeScale is the -smoke size: every phase runs once, briefly.
func smokeScale() scale {
	return scale{
		devices: 2000, rigs: 1,
		capFrameDiv: 100,
		pacedFrames: 100, pacedFPS: 2000,
		walkFrames: 200,
		replayJobs: 24, replayBase: 2, replayRespMin: 1, replayRespMax: 8,
	}
}

// deviceRing is a slice of the fleet that is driven frame by frame, wrapping
// around; items carries a batch-1 tail copy so every frame is one subslice.
type deviceRing struct {
	items []server.CheckIn
	n     int
}

func newDeviceRing(devs []server.CheckIn) *deviceRing {
	items := make([]server.CheckIn, 0, len(devs)+batch-1)
	items = append(items, devs...)
	items = append(items, devs[:min(batch-1, len(devs))]...)
	return &deviceRing{items: items, n: len(devs)}
}

// frame returns the k-th frame of the ring.
func (r *deviceRing) frame(k int) []server.CheckIn {
	off := (k * batch) % r.n
	return r.items[off : off+batch]
}

// inputs is everything a run feeds the daemons, generated from the seed
// alone: the daemons never see the seed.
type inputs struct {
	fleet      []server.CheckIn // seeded order
	setupJobs  []server.JobSpec
	replaySeed int64 // seeds the replay's simulated response times
}

var strata = []string{"General", "Compute-Rich", "Memory-Rich", "High-Perf"}

func generateInputs(seed int64, sc scale) *inputs {
	root := stats.NewRNG(seed)
	fleet := trace.GenerateFleet(trace.FleetConfig{
		NumDevices: sc.devices,
		Horizon:    simtime.Hour, // availability intervals are not used
		Seed:       root.Int63(),
	})
	order := root.Fork().Perm(sc.devices)
	in := &inputs{fleet: make([]server.CheckIn, sc.devices)}
	for i, di := range order {
		d := fleet.Devices[di]
		in.fleet[i] = server.CheckIn{DeviceID: fmt.Sprintf("dev-%06d", di), CPU: d.CPU, Mem: d.Mem}
	}
	// Eight small jobs from the production job-trace marginals, capped so the
	// first fleet pass serves them: after set-up the surplus workloads hold
	// no open demand.
	model := trace.DefaultJobTraceModel()
	model.MinRounds, model.MaxRounds = 1, 3
	model.RoundsMedian, model.RoundsP95 = 2, 3
	model.MinDemand, model.MaxDemand = 10, max(10, sc.devices/500)
	jobRNG := root.Fork()
	for i, spec := range model.Generate(8, jobRNG) {
		in.setupJobs = append(in.setupJobs, server.JobSpec{
			Name:           fmt.Sprintf("setup-%d", i),
			Category:       strata[i%len(strata)],
			DemandPerRound: spec.DemandPerRound,
			Rounds:         spec.Rounds,
		})
	}
	in.replaySeed = root.Int63()
	return in
}

// demandOf returns the size of the k-th demand-feeder job of a lane:
// cumulative rounding keeps the registered total at exactly demandFrac of the
// check-ins sent.
func demandOf(k int) int {
	per := demandFrac * demandEvery * batch
	return int(math.Round(per*float64(k+1))) - int(math.Round(per*float64(k)))
}

// Package workload constructs the CL job workloads of the paper's
// evaluation (§5.1): five demand scenarios sampled from the job demand trace
// (Even, Small, Large, Low, High), the four requirement-biased workloads of
// the Table 4 case study, Poisson job arrivals with a 30-minute mean
// inter-arrival, and random mapping of jobs onto the four device-eligibility
// categories.
package workload

import (
	"fmt"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
)

// Scenario selects how job specs are sampled from the demand trace.
type Scenario int

const (
	// Even samples uniformly from the whole trace (the default workload).
	Even Scenario = iota
	// Small samples only jobs with below-average total demand.
	Small
	// Large samples only jobs with above-average total demand.
	Large
	// Low samples only jobs with below-average per-round demand.
	Low
	// High samples only jobs with above-average per-round demand.
	High
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Even:
		return "Even"
	case Small:
		return "Small"
	case Large:
		return "Large"
	case Low:
		return "Low"
	case High:
		return "High"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Scenarios lists all five demand scenarios in paper order.
func Scenarios() []Scenario { return []Scenario{Even, Small, Large, Low, High} }

// Bias selects the requirement-distribution bias of the Table 4 case study:
// half the jobs ask for the biased category, the rest spread evenly.
type Bias int

const (
	// NoBias maps each job to a uniformly random category.
	NoBias Bias = iota
	// BiasGeneral over-weights General resources.
	BiasGeneral
	// BiasCompute over-weights Compute-Rich resources.
	BiasCompute
	// BiasMemory over-weights Memory-Rich resources.
	BiasMemory
	// BiasResource over-weights High-Performance resources.
	BiasResource
)

// String implements fmt.Stringer.
func (b Bias) String() string {
	switch b {
	case NoBias:
		return "Unbiased"
	case BiasGeneral:
		return "General"
	case BiasCompute:
		return "Compute-heavy"
	case BiasMemory:
		return "Memory-heavy"
	case BiasResource:
		return "Resource-heavy"
	default:
		return fmt.Sprintf("Bias(%d)", int(b))
	}
}

// categoryWeights returns the per-category sampling weights for a bias.
// Order follows device.Categories(): General, Compute, Memory, HighPerf.
func (b Bias) categoryWeights() []float64 {
	even := []float64{0.25, 0.25, 0.25, 0.25}
	biased := func(i int) []float64 {
		w := []float64{1.0 / 6, 1.0 / 6, 1.0 / 6, 1.0 / 6}
		w[i] = 0.5
		return w
	}
	switch b {
	case BiasGeneral:
		return biased(0)
	case BiasCompute:
		return biased(1)
	case BiasMemory:
		return biased(2)
	case BiasResource:
		return biased(3)
	default:
		return even
	}
}

// Config parameterizes workload generation.
type Config struct {
	Scenario Scenario
	Bias     Bias
	NumJobs  int
	// MeanInterArrival is the Poisson arrival mean (default 30 min).
	MeanInterArrival simtime.Duration
	Seed             int64

	// TraceSize is the size of the underlying job demand trace the
	// scenario samples from (default 400).
	TraceSize int
	// TraceModel overrides the demand-trace distribution.
	TraceModel *trace.JobTraceModel

	// Scaling: the paper's jobs run for days (up to 4000 rounds x 1500
	// participants); simulations scale rounds and per-round demand down
	// proportionally so experiments complete in seconds while preserving
	// the trace's relative shape. Zero values take the defaults below.
	RoundsScale  float64 // default 0.01  (4000 -> 40)
	MinRounds    int     // default 2
	MaxRounds    int     // default 40
	DemandScale  float64 // default 0.2   (1500 -> 300)
	MinDemand    int     // default 5
	MaxDemand    int     // default 300
	TaskScaleLo  float64 // default 0.6   per-job task-duration multiplier
	TaskScaleHi  float64 // default 1.6
	FixedReq     *device.Requirement
	FixedDemand  int // >0 pins every job's per-round demand
	FixedRounds  int // >0 pins every job's round count
	ArrivalStart simtime.Time
}

// normalize fills defaults.
func (c *Config) normalize() {
	if c.NumJobs <= 0 {
		c.NumJobs = 50
	}
	if c.MeanInterArrival <= 0 {
		c.MeanInterArrival = 30 * simtime.Minute
	}
	if c.TraceSize <= 0 {
		c.TraceSize = 400
	}
	if c.TraceModel == nil {
		c.TraceModel = trace.DefaultJobTraceModel()
	}
	if c.RoundsScale <= 0 {
		c.RoundsScale = 0.01
	}
	if c.MinRounds <= 0 {
		c.MinRounds = 2
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 40
	}
	if c.DemandScale <= 0 {
		c.DemandScale = 0.2
	}
	if c.MinDemand <= 0 {
		c.MinDemand = 5
	}
	if c.MaxDemand <= 0 {
		c.MaxDemand = 300
	}
	if c.TaskScaleLo <= 0 {
		c.TaskScaleLo = 0.6
	}
	if c.TaskScaleHi <= c.TaskScaleLo {
		c.TaskScaleHi = c.TaskScaleLo + 1.0
	}
}

// Workload is a generated set of jobs ready for simulation.
type Workload struct {
	Jobs   []*job.Job
	Config Config
}

// Generate builds a workload from the config. Jobs receive IDs 0..NumJobs-1
// and Poisson arrival times.
func Generate(cfg Config) *Workload {
	cfg.normalize()
	rng := stats.NewRNG(cfg.Seed)
	traceRNG := rng.Fork()
	pickRNG := rng.Fork()
	arriveRNG := rng.Fork()
	catRNG := rng.Fork()
	taskRNG := rng.Fork()

	specs := cfg.TraceModel.Generate(cfg.TraceSize, traceRNG)
	pool := filterScenario(specs, cfg.Scenario)
	if len(pool) == 0 {
		pool = specs
	}

	weights := cfg.Bias.categoryWeights()
	cats := device.Categories()

	jobs := make([]*job.Job, 0, cfg.NumJobs)
	at := cfg.ArrivalStart
	for i := 0; i < cfg.NumJobs; i++ {
		spec := pool[pickRNG.Intn(len(pool))]
		rounds := scaleClamp(spec.Rounds, cfg.RoundsScale, cfg.MinRounds, cfg.MaxRounds)
		demand := scaleClamp(spec.DemandPerRound, cfg.DemandScale, cfg.MinDemand, cfg.MaxDemand)
		if cfg.FixedRounds > 0 {
			rounds = cfg.FixedRounds
		}
		if cfg.FixedDemand > 0 {
			demand = cfg.FixedDemand
		}
		req := cats[catRNG.WeightedChoice(weights)]
		if cfg.FixedReq != nil {
			req = *cfg.FixedReq
		}
		j := job.New(job.ID(i), req, demand, rounds, at)
		j.TaskScale = taskRNG.Uniform(cfg.TaskScaleLo, cfg.TaskScaleHi)
		jobs = append(jobs, j)
		at = at.Add(simtime.Duration(arriveRNG.Exp(float64(cfg.MeanInterArrival))))
	}
	return &Workload{Jobs: jobs, Config: cfg}
}

func scaleClamp(x int, scale float64, lo, hi int) int {
	v := int(float64(x)*scale + 0.5)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

func filterScenario(specs []trace.JobSpec, s Scenario) []trace.JobSpec {
	switch s {
	case Small:
		small, _ := trace.SplitByTotalDemand(specs)
		return small
	case Large:
		_, large := trace.SplitByTotalDemand(specs)
		return large
	case Low:
		low, _ := trace.SplitByRoundDemand(specs)
		return low
	case High:
		_, high := trace.SplitByRoundDemand(specs)
		return high
	default:
		return specs
	}
}

// Clone returns a deep copy of the workload with fresh job state, so the
// same workload can be replayed under several schedulers (jobs are mutated
// by the simulator).
func (w *Workload) Clone() *Workload {
	jobs := make([]*job.Job, len(w.Jobs))
	for i, j := range w.Jobs {
		nj := job.New(j.ID, j.Requirement, j.Demand, j.Rounds, j.Arrival)
		nj.TaskScale = j.TaskScale
		nj.Name = j.Name
		jobs[i] = nj
	}
	return &Workload{Jobs: jobs, Config: w.Config}
}

// Package eval is the experiment harness: it re-creates every table and
// figure of the paper's evaluation section (§5) on top of the simulator.
// Each experiment has one entry point (Table1, Figure11, ...) that returns a
// structured result and can render itself as text; DESIGN.md carries the
// experiment index and EXPERIMENTS.md the measured outcomes.
package eval

import (
	"fmt"
	"sort"

	"venn/internal/core"
	"venn/internal/sched"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
	"venn/internal/workload"
)

// Scale selects experiment sizing: Quick keeps unit-test and benchmark
// runtimes in check, Default is the standard evaluation size, Full
// approaches the paper's own scale (minutes of wall-clock per experiment).
type Scale int

const (
	// ScaleQuick is for tests and benchmarks (seconds).
	ScaleQuick Scale = iota
	// ScaleDefault is the standard experiment size.
	ScaleDefault
	// ScaleFull approaches paper scale.
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScaleDefault:
		return "default"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// Setup bundles everything one simulated comparison needs.
type Setup struct {
	Scale   Scale
	Seed    int64
	Fleet   trace.FleetConfig
	Jobs    workload.Config
	Horizon simtime.Duration
}

// NewSetup returns the canonical experiment setup at the given scale.
// Individual experiments override fields as needed.
func NewSetup(scale Scale, seed int64) Setup {
	s := Setup{Scale: scale, Seed: seed}
	switch scale {
	case ScaleQuick:
		s.Fleet = trace.FleetConfig{
			NumDevices: 1500,
			Horizon:    3 * simtime.Day,
			Seed:       seed,
		}
		s.Jobs = workload.Config{
			NumJobs:          16,
			MeanInterArrival: 20 * simtime.Minute,
			Seed:             seed + 1,
			MaxRounds:        8,
			MaxDemand:        80,
		}
	case ScaleFull:
		s.Fleet = trace.FleetConfig{
			NumDevices: 20000,
			Horizon:    8 * simtime.Day,
			Seed:       seed,
		}
		s.Jobs = workload.Config{
			NumJobs:          50,
			MeanInterArrival: 30 * simtime.Minute,
			Seed:             seed + 1,
			MaxRounds:        80,
			MaxDemand:        600,
		}
	default:
		s.Fleet = trace.FleetConfig{
			NumDevices: 5000,
			Horizon:    5 * simtime.Day,
			Seed:       seed,
		}
		s.Jobs = workload.Config{
			NumJobs:          50,
			MeanInterArrival: 30 * simtime.Minute,
			Seed:             seed + 1,
			MaxRounds:        25,
			MaxDemand:        200,
		}
	}
	s.Horizon = s.Fleet.Horizon
	return s
}

// SchedulerFactory builds a fresh scheduler per run (schedulers are
// stateful and single-use).
type SchedulerFactory func() sim.Scheduler

// StandardSchedulers returns the paper's scheduler lineup, one arm per name
// sched.ByName resolves, keyed by the scheduler's Name(): Random (the
// baseline every speed-up is computed against), FIFO, SRSF, and Venn.
func StandardSchedulers() map[string]SchedulerFactory {
	lineup := make(map[string]SchedulerFactory, len(sched.Names))
	for _, name := range sched.Names {
		factory := func() sim.Scheduler {
			s, _ := sched.ByName(name, core.DefaultOptions())
			return s
		}
		lineup[factory().Name()] = factory
	}
	return lineup
}

func newRandomBaseline() sim.Scheduler { return sched.NewRandom() }

// RunOne simulates the workload under one scheduler. The fleet is reset and
// the workload cloned, so the same Setup can be replayed repeatedly.
func RunOne(fleet *trace.Fleet, wl *workload.Workload, factory SchedulerFactory, seed int64, observer sim.RoundObserver) (*sim.Result, error) {
	fleet.Reset()
	run := wl.Clone()
	eng, err := sim.NewEngine(sim.Config{
		Fleet:     fleet,
		Jobs:      run.Jobs,
		Scheduler: factory(),
		Seed:      seed,
		Observer:  observer,
	})
	if err != nil {
		return nil, err
	}
	return eng.Run(), nil
}

// Comparison holds the per-scheduler results of one workload.
type Comparison struct {
	Results map[string]*sim.Result
}

// Compare runs the workload under every scheduler on the same fleet and
// returns the results keyed by scheduler name. The runs fan out across the
// experiment worker pool: every run is deterministic given its own seed and
// gets a private copy of the fleet's mutable device state, so concurrent
// execution returns exactly the sequential results.
func Compare(setup Setup, factories map[string]SchedulerFactory) (*Comparison, error) {
	fleet := trace.GenerateFleet(setup.Fleet)
	wl := workload.Generate(setup.Jobs)
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	results := make([]*sim.Result, len(names))
	err := parallelEach(len(names), func(i int) error {
		res, err := RunOne(fleet.Clone(), wl, factories[names[i]], setup.Seed+100, nil)
		if err != nil {
			return fmt.Errorf("run %s: %w", names[i], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{Results: make(map[string]*sim.Result, len(names))}
	for i, name := range names {
		cmp.Results[name] = results[i]
	}
	return cmp, nil
}

// CompareMany runs Compare over the given setups concurrently (bounded by
// Workers()), returning the comparisons in setup order. The factories
// callback builds the scheduler lineup for setup i; it must be safe to call
// from multiple goroutines.
func CompareMany(setups []Setup, factories func(i int) map[string]SchedulerFactory) ([]*Comparison, error) {
	out := make([]*Comparison, len(setups))
	err := parallelEach(len(setups), func(i int) error {
		cmp, err := Compare(setups[i], factories(i))
		if err != nil {
			return err
		}
		out[i] = cmp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// meanSpeedups averages each named scheduler's speed-up over Random across
// cmps, the seeds of one table row.
func meanSpeedups(cmps []*Comparison, names []string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, name := range names {
		acc := make([]float64, len(cmps))
		for s, cmp := range cmps {
			acc[s] = cmp.Speedup(name, "Random")
		}
		out[name] = stats.Mean(acc)
	}
	return out
}

// Speedup returns scheduler's average-JCT improvement over the named
// baseline (paired over jobs completed by both).
func (c *Comparison) Speedup(scheduler, baseline string) float64 {
	s, ok1 := c.Results[scheduler]
	b, ok2 := c.Results[baseline]
	if !ok1 || !ok2 {
		return 0
	}
	return s.SpeedupOver(b)
}

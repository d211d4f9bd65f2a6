// Package venn is the public API of the Venn reproduction: a resource
// manager for collaborative-learning (CL) jobs that schedules ephemeral,
// heterogeneous edge devices across many concurrent jobs to minimize average
// job completion time (JCT), after "Venn: Resource Management for
// Collaborative Learning Jobs" (MLSys 2025).
//
// The package re-exports the pieces a downstream user composes:
//
//   - Scheduler construction: NewVenn, NewRandom, NewFIFO, NewSRSF
//   - Workload and fleet synthesis: GenerateFleet, GenerateWorkload
//   - Simulation: Simulate and SimConfig
//   - The experiment harness lives in internal/eval and is surfaced by
//     cmd/vennbench.
//
// Quickstart:
//
//	fleet := venn.GenerateFleet(venn.FleetConfig{NumDevices: 3000, Seed: 1})
//	wl := venn.GenerateWorkload(venn.WorkloadConfig{NumJobs: 20, Seed: 2})
//	res, err := venn.Simulate(venn.SimConfig{Fleet: fleet, Workload: wl,
//	    Scheduler: venn.NewVenn(venn.SchedulerOptions{})})
package venn

import (
	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sched"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/trace"
	"venn/internal/workload"
)

// Re-exported core types.
type (
	// Device is one edge device (normalized CPU/memory scores).
	Device = device.Device
	// DeviceID identifies a device within a simulation.
	DeviceID = device.ID
	// Requirement is a job's minimum device specification.
	Requirement = device.Requirement
	// Job is one collaborative-learning job.
	Job = job.Job
	// Fleet is a device population plus its availability trace.
	Fleet = trace.Fleet
	// FleetConfig controls fleet synthesis.
	FleetConfig = trace.FleetConfig
	// WorkloadConfig controls workload synthesis.
	WorkloadConfig = workload.Config
	// Workload is a generated job set.
	Workload = workload.Workload
	// Scheduler is the resource-manager plug-in interface.
	Scheduler = sim.Scheduler
	// Result summarizes one simulation run.
	Result = sim.Result
	// SchedulerOptions configures the Venn scheduler.
	SchedulerOptions = core.Options
	// Time is simulated absolute time (milliseconds).
	Time = simtime.Time
	// Duration is simulated elapsed time (milliseconds).
	Duration = simtime.Duration
	// RoundObserver receives each completed round's participants.
	RoundObserver = sim.RoundObserver
)

// The four standard device-eligibility strata of the paper's evaluation.
var (
	General     = device.General
	ComputeRich = device.ComputeRich
	MemoryRich  = device.MemoryRich
	HighPerf    = device.HighPerf
)

// NewVenn returns the paper's scheduler: IRS contention-aware job ordering
// plus resource-aware tier-based device matching. A zero Tiers takes the
// default of 3; every other field keeps the caller's value, so zero-value
// options are 3 tiers with the fairness knob off.
func NewVenn(opts SchedulerOptions) Scheduler { return core.New(opts) }

// NewRandom returns the optimized random-matching baseline (the common
// design of production CL resource managers).
func NewRandom() Scheduler { return sched.NewRandom() }

// NewFIFO returns the FIFO baseline.
func NewFIFO() Scheduler { return sched.NewFIFO() }

// NewSRSF returns the shortest-remaining-service-first baseline.
func NewSRSF() Scheduler { return sched.NewSRSF() }

// GenerateFleet synthesizes a device fleet with diurnal availability and an
// AI-Benchmark-like capacity distribution.
func GenerateFleet(cfg FleetConfig) *Fleet { return trace.GenerateFleet(cfg) }

// GenerateWorkload synthesizes a CL job workload (demand-trace sampling,
// Poisson arrivals, category mapping).
func GenerateWorkload(cfg WorkloadConfig) *Workload { return workload.Generate(cfg) }

// NewJob creates a single job directly, for hand-built scenarios.
func NewJob(id int, req Requirement, demandPerRound, rounds int, arrival Duration) *Job {
	return job.New(job.ID(id), req, demandPerRound, rounds, simtime.Time(arrival))
}

// SimConfig describes one simulation run through the public API.
type SimConfig struct {
	Fleet     *Fleet
	Workload  *Workload
	Jobs      []*Job // alternative to Workload for hand-built job sets
	Scheduler Scheduler
	Horizon   Duration // zero = fleet horizon
	Seed      int64
	Observer  RoundObserver
}

// Simulate replays the fleet against the workload under the scheduler and
// returns the run's result. The workload is cloned and the fleet reset, so
// inputs can be reused across runs.
func Simulate(cfg SimConfig) (*Result, error) {
	jobs := cfg.Jobs
	if cfg.Workload != nil {
		jobs = cfg.Workload.Clone().Jobs
	}
	cfg.Fleet.Reset()
	eng, err := sim.NewEngine(sim.Config{
		Fleet:     cfg.Fleet,
		Jobs:      jobs,
		Scheduler: cfg.Scheduler,
		Horizon:   simtime.Duration(cfg.Horizon),
		Seed:      cfg.Seed,
		Observer:  cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	return eng.Run(), nil
}

// Hour and Day re-export the most used simulated durations.
const (
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
	Minute      = simtime.Minute
	Hour        = simtime.Hour
	Day         = simtime.Day
)

// Package device models edge devices and the set algebra over job resource
// requirements that underlies Venn's Intersection Resource Scheduling.
//
// A device is described by normalized hardware scores (CPU and memory, each
// in [0, 1], following the AI-Benchmark normalization the paper uses). A job
// requirement is a pair of minimum scores. The distinct thresholds across all
// active requirements cut the score plane into a grid of atomic cells; every
// requirement's eligible device set is then an exact union of cells (a
// RegionSet bitset). Overlap, containment, and nesting between job resource
// demands — the structure the IRS problem is named for — become plain set
// algebra over these bitsets.
package device

import (
	"fmt"
	"math"
)

// ID identifies a device within one simulation.
type ID int32

// Device is one edge device: a phone, laptop, or IoT node.
type Device struct {
	ID  ID
	CPU float64 // normalized CPU capability score in [0, 1]
	Mem float64 // normalized memory capacity score in [0, 1]

	// Speed scales task compute time: a device with Speed 2 finishes the
	// same task twice as fast as the reference device. Derived from CPU
	// score by the trace generator.
	Speed float64

	// FailureProb is the per-task probability that the device drops out
	// (battery, user interaction, network loss) before reporting.
	FailureProb float64

	// LastTaskDay is the simulation day index of the device's most recent
	// task, used to enforce the paper's one-CL-task-per-device-per-day
	// realism constraint. -1 means never.
	LastTaskDay int32
}

// New returns a device with the given scores and sensible derived defaults:
// speed follows the CPU score linearly in [0.5, 2.0] and failure probability
// decreases with capability (high-end devices finish quickly and drop out
// less, as §4.3 observes).
func New(id ID, cpu, mem float64) *Device {
	cpu = clamp01(cpu)
	mem = clamp01(mem)
	return &Device{
		ID:          id,
		CPU:         cpu,
		Mem:         mem,
		Speed:       0.5 + 1.5*cpu,
		FailureProb: 0.12 * (1 - 0.75*cpu),
		LastTaskDay: -1,
	}
}

func clamp01(x float64) float64 { return Clamp01(x) }

// Clamp01 clamps a reported hardware score into the valid [0, 1] range;
// NaN maps to 0. Callers that overwrite a Device's scores with raw wire
// values (the live server's check-in refresh) must clamp the same way New
// does, or grid lookups can return out-of-range cells.
func Clamp01(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x >= 0 {
		return x
	}
	return 0 // negative or NaN
}

// Capability is a combined capacity score used for tier partitioning in the
// device-matching algorithm (Algorithm 2). Compute speed dominates since it
// determines response time.
func (d *Device) Capability() float64 { return 0.7*d.CPU + 0.3*d.Mem }

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("dev%d(cpu=%.2f mem=%.2f)", d.ID, d.CPU, d.Mem)
}

// Requirement is a CL job's minimum device specification. Eligible devices
// are those with CPU >= MinCPU and Mem >= MinMem.
type Requirement struct {
	Name   string
	MinCPU float64
	MinMem float64
}

// Eligible reports whether the device satisfies the requirement.
func (r Requirement) Eligible(d *Device) bool {
	return d.CPU >= r.MinCPU && d.Mem >= r.MinMem
}

// EligibleScores reports whether raw scores satisfy the requirement.
func (r Requirement) EligibleScores(cpu, mem float64) bool {
	return cpu >= r.MinCPU && mem >= r.MinMem
}

// Key returns a canonical identity for grouping jobs with identical
// requirements into resource-homogeneous job groups. Thresholds are rounded
// to 1e-9 so that floating-point noise cannot split a group.
func (r Requirement) Key() RequirementKey {
	return RequirementKey{
		MinCPU: int64(math.Round(r.MinCPU * 1e9)),
		MinMem: int64(math.Round(r.MinMem * 1e9)),
	}
}

// RequirementKey is the comparable grouping key of a Requirement.
type RequirementKey struct {
	MinCPU, MinMem int64
}

// String implements fmt.Stringer.
func (r Requirement) String() string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("req(cpu>=%.2f,mem>=%.2f)", r.MinCPU, r.MinMem)
}

// The four device-eligibility strata used throughout the paper's evaluation
// (Figure 8a): devices are stratified by CPU and memory score at 0.5, giving
// eligible sets that overlap, contain, and nest.
var (
	General     = Requirement{Name: "General", MinCPU: 0, MinMem: 0}
	ComputeRich = Requirement{Name: "Compute-Rich", MinCPU: 0.5, MinMem: 0}
	MemoryRich  = Requirement{Name: "Memory-Rich", MinCPU: 0, MinMem: 0.5}
	HighPerf    = Requirement{Name: "High-Perf", MinCPU: 0.5, MinMem: 0.5}
)

// Categories lists the four standard requirement strata in a stable order.
func Categories() []Requirement {
	return []Requirement{General, ComputeRich, MemoryRich, HighPerf}
}

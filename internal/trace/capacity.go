// Package trace synthesizes the input traces the paper's evaluation replays:
// a diurnal device-availability trace (in place of the proprietary FedScale
// trace, Figure 2a), a device hardware-capacity distribution (in place of AI
// Benchmark data, Figures 2b/8a), and a CL job demand trace (Figure 8b).
// All generators are deterministic given a seed and emit plain Go values
// that the simulator replays; traces can also be saved/loaded as JSON.
package trace

import (
	"venn/internal/device"
	"venn/internal/stats"
)

// CapacityModel samples normalized device hardware scores. It is a mixture
// of beta distributions: a low-end mass (older phones, IoT devices) and a
// high-end mass (flagship phones, laptops), which reproduces the bimodal
// spread visible in the AI-Benchmark data the paper plots, and — crucially
// for the scheduler — controls what fraction of the fleet falls into each of
// the four eligibility strata.
type CapacityModel struct {
	// HighEndFraction is the probability a device is drawn from the
	// high-end component.
	HighEndFraction float64
	// Component Beta parameters for CPU and memory scores.
	LowCPUAlpha, LowCPUBeta   float64
	LowMemAlpha, LowMemBeta   float64
	HighCPUAlpha, HighCPUBeta float64
	HighMemAlpha, HighMemBeta float64
	// Correlation in [0,1]: fraction of the memory score inherited from
	// the CPU score's component draw (CPU-rich devices tend to be
	// memory-rich too, but not perfectly).
	Correlation float64
}

// DefaultCapacityModel returns the model used across experiments. Its
// stratum masses approximate Figure 8a: roughly 55% General-only, ~15%
// Compute-Rich-only, ~12% Memory-Rich-only, ~18% High-Perf.
func DefaultCapacityModel() *CapacityModel {
	return &CapacityModel{
		HighEndFraction: 0.30,
		LowCPUAlpha:     2.0, LowCPUBeta: 3.5,
		LowMemAlpha: 2.0, LowMemBeta: 3.0,
		HighCPUAlpha: 5.0, HighCPUBeta: 1.8,
		HighMemAlpha: 4.5, HighMemBeta: 1.8,
		Correlation: 0.55,
	}
}

// Sample draws one (cpu, mem) score pair.
func (m *CapacityModel) Sample(rng *stats.RNG) (cpu, mem float64) {
	high := rng.Bool(m.HighEndFraction)
	if high {
		cpu = rng.Beta(m.HighCPUAlpha, m.HighCPUBeta)
	} else {
		cpu = rng.Beta(m.LowCPUAlpha, m.LowCPUBeta)
	}
	// Memory follows the same component with probability Correlation,
	// otherwise re-flips the component coin, decorrelating the scores.
	memHigh := high
	if !rng.Bool(m.Correlation) {
		memHigh = rng.Bool(m.HighEndFraction)
	}
	if memHigh {
		mem = rng.Beta(m.HighMemAlpha, m.HighMemBeta)
	} else {
		mem = rng.Beta(m.LowMemAlpha, m.LowMemBeta)
	}
	return cpu, mem
}

// GenerateDevices samples a fleet of n devices from the capacity model.
func (m *CapacityModel) GenerateDevices(n int, rng *stats.RNG) []*device.Device {
	devs := make([]*device.Device, n)
	for i := 0; i < n; i++ {
		cpu, mem := m.Sample(rng)
		devs[i] = device.New(device.ID(i), cpu, mem)
	}
	return devs
}

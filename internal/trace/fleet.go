package trace

import (
	"venn/internal/device"
	"venn/internal/simtime"
	"venn/internal/stats"
)

// Fleet bundles a device population with its availability trace over a
// simulation horizon. It is the complete "resources" input of one experiment.
type Fleet struct {
	Devices   []*device.Device
	Intervals [][]Interval // Intervals[i] belongs to Devices[i]
	Horizon   simtime.Duration
}

// FleetConfig controls fleet synthesis.
type FleetConfig struct {
	NumDevices   int
	Horizon      simtime.Duration
	Capacity     *CapacityModel
	Availability *AvailabilityModel
	Seed         int64
}

// GenerateFleet synthesizes a fleet from the config.
func GenerateFleet(cfg FleetConfig) *Fleet {
	if cfg.Capacity == nil {
		cfg.Capacity = DefaultCapacityModel()
	}
	if cfg.Availability == nil {
		cfg.Availability = DefaultAvailabilityModel()
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 4 * simtime.Day
	}
	rng := stats.NewRNG(cfg.Seed)
	capRNG := rng.Fork()
	availRNG := rng.Fork()
	f := &Fleet{
		Devices:   cfg.Capacity.GenerateDevices(cfg.NumDevices, capRNG),
		Intervals: make([][]Interval, cfg.NumDevices),
		Horizon:   cfg.Horizon,
	}
	for i := range f.Devices {
		f.Intervals[i] = cfg.Availability.Generate(availRNG, cfg.Horizon)
	}
	return f
}

// Reset clears per-run mutable device state (task-per-day bookkeeping) so
// the same fleet can be replayed under another scheduler.
func (f *Fleet) Reset() {
	for _, d := range f.Devices {
		d.LastTaskDay = -1
	}
}

// Clone returns a fleet that can be simulated concurrently with the
// original: devices are copied (the engine mutates their task-per-day
// state), while the availability intervals — read-only during a run — are
// shared.
func (f *Fleet) Clone() *Fleet {
	devs := make([]*device.Device, len(f.Devices))
	for i, d := range f.Devices {
		cp := *d
		devs[i] = &cp
	}
	return &Fleet{Devices: devs, Intervals: f.Intervals, Horizon: f.Horizon}
}

// CategoryCounts returns how many devices satisfy each of the standard
// requirement strata (a device can satisfy several).
func (f *Fleet) CategoryCounts() map[string]int {
	out := make(map[string]int)
	for _, d := range f.Devices {
		for _, r := range device.Categories() {
			if r.Eligible(d) {
				out[r.Name]++
			}
		}
	}
	return out
}

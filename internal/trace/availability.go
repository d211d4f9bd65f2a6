package trace

import (
	"math"
	"sort"

	"venn/internal/simtime"
	"venn/internal/stats"
)

// Interval is a half-open span [Start, End) during which a device is
// available for CL work (charging and on WiFi).
type Interval struct {
	Start simtime.Time
	End   simtime.Time
}

// AvailabilityModel generates per-device availability intervals with the
// diurnal shape of the FedScale client trace (Figure 2a): most devices come
// online overnight while charging on WiFi, a smaller share during the day,
// and the fraction of the fleet that is online oscillates daily between
// roughly TroughFraction and PeakFraction.
type AvailabilityModel struct {
	// PeakHour is the hour of day (0-24) at which most sessions begin.
	PeakHour float64
	// StartStdHours is the spread of session start times around PeakHour.
	StartStdHours float64
	// SessionMedianHours and SessionP95Hours parameterize the log-normal
	// session length.
	SessionMedianHours float64
	SessionP95Hours    float64
	// DailyOnlineProb is the probability that a device comes online at
	// all on a given day.
	DailyOnlineProb float64
	// DaytimeProb is the probability that a session is a short daytime
	// top-up charge instead of the overnight charge.
	DaytimeProb float64
}

// DefaultAvailabilityModel returns the model used in experiments, tuned so
// the online fraction swings diurnally between ~10% and ~30% of the fleet,
// matching the amplitude of Figure 2a.
func DefaultAvailabilityModel() *AvailabilityModel {
	return &AvailabilityModel{
		PeakHour:           1.0, // 1 AM overnight charging
		StartStdHours:      2.5,
		SessionMedianHours: 4.0,
		SessionP95Hours:    9.0,
		DailyOnlineProb:    0.85,
		DaytimeProb:        0.25,
	}
}

// Generate produces the availability intervals for one device over the given
// horizon. Intervals are sorted and non-overlapping.
func (m *AvailabilityModel) Generate(rng *stats.RNG, horizon simtime.Duration) []Interval {
	days := int(horizon/simtime.Day) + 1
	var ivs []Interval
	for day := 0; day < days; day++ {
		if !rng.Bool(m.DailyOnlineProb) {
			continue
		}
		base := simtime.Time(day) * simtime.Time(simtime.Day)
		startHour := rng.Normal(m.PeakHour, m.StartStdHours)
		if rng.Bool(m.DaytimeProb) {
			// Daytime top-up session around mid-afternoon.
			startHour = rng.Normal(14.0, 3.0)
		}
		start := base.Add(simtime.FromSeconds(normHour(startHour) * 3600))
		durH := rng.LogNormalMedianP95(m.SessionMedianHours, m.SessionP95Hours)
		if durH < 0.25 {
			durH = 0.25
		}
		end := start.Add(simtime.FromSeconds(durH * 3600))
		if end > simtime.Time(horizon) {
			end = simtime.Time(horizon)
		}
		if end > start {
			ivs = append(ivs, Interval{Start: start, End: end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	return mergeIntervals(ivs)
}

// normHour wraps an hour value into [0, 24).
func normHour(h float64) float64 {
	h = math.Mod(h, 24)
	if h < 0 {
		h += 24
	}
	return h
}

// mergeIntervals coalesces overlapping sorted intervals.
func mergeIntervals(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// OnlineFraction returns, for each sampled instant step apart over the
// horizon, the fraction of the fleet whose trace is online. Used to
// regenerate Figure 2a.
func OnlineFraction(traces [][]Interval, horizon simtime.Duration, step simtime.Duration) []float64 {
	if step <= 0 {
		step = simtime.Hour
	}
	n := int(horizon/step) + 1
	out := make([]float64, n)
	if len(traces) == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		t := simtime.Time(i) * simtime.Time(step)
		online := 0
		for _, ivs := range traces {
			if atTime(ivs, t) {
				online++
			}
		}
		out[i] = float64(online) / float64(len(traces))
	}
	return out
}

// atTime reports whether sorted intervals cover t (binary search).
func atTime(ivs []Interval, t simtime.Time) bool {
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case t < ivs[mid].Start:
			hi = mid
		case t >= ivs[mid].End:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

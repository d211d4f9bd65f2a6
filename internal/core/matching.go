package core

import (
	"slices"

	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/simtime"
)

// tierFilter restricts one open request to a single device tier (the output
// of Algorithm 2). Devices outside the tier skip this job and flow to
// subsequent jobs in the group, maximizing utilization of leftover tiers.
type tierFilter struct {
	tier int
	cuts []float64 // capability thresholds in effect for this request

	// lapseAt is a safety valve: if the request is still unfilled well
	// past the scheduling-delay estimate (the supply estimate was wrong,
	// or the tier is unexpectedly thin), the filter stops applying so the
	// request cannot starve.
	lapseAt simtime.Time
}

// accepts reports whether the device falls in the chosen tier.
func (f *tierFilter) accepts(d *device.Device) bool {
	return tierOf(d.Capability(), f.cuts) == f.tier
}

// TierExit names the point at which decideTier settled a request, so a
// live daemon can say why it did or did not filter (Venn.TierExits counts
// them).
type TierExit uint8

const (
	TierExitMatchingDisabled TierExit = iota // matching off, or a single tier
	TierExitNoProfile                        // no mature profile: this round profiles
	TierExitNoCuts                           // the profile yields no tier cuts
	TierExitNotFaster                        // the sampled tier is not faster than the mix
	TierExitRegime                           // the regime detector: arrivals cannot sustain response-time cadence
	TierExitPoolShort                        // the tier's standing pool does not cover the request
	TierExitTradeOff                         // Algorithm 2's trade-off condition is false
	TierExitFilterApplied                    // the request runs tier-restricted
	NumTierExits
)

// decideTier evaluates Algorithm 2 for a newly opened request and returns
// the tier filter to apply, or nil to run the round unfiltered (either the
// trade-off condition fails, or the job has no profile yet and this round
// profiles its devices), and the exit it took.
//
// The paper's condition V + g_u*c < 1 + c (with c = t_response/t_schedule)
// models supply as a pure arrival rate, where restricting to one of V tiers
// multiplies the scheduling delay by V. We evaluate the same trade-off on
// absolute times — t_sched(filtered) + g_u*t_resp < t_sched(unfiltered) +
// t_resp — with a supply estimate that also covers the standing idle pool;
// when supply is rate-limited the two forms coincide exactly.
func (v *Venn) decideTier(j *job.Job, now simtime.Time) (*tierFilter, TierExit) {
	V := v.opts.Tiers
	if v.opts.DisableMatching || V <= 1 {
		return nil, TierExitMatchingDisabled
	}
	pf := v.profiles
	prof := pf.forJob(j.ID)
	if prof == nil {
		return nil, TierExitNoProfile // profiling round
	}
	cuts := pf.tierThresholds(prof, V)
	if len(cuts) == 0 {
		return nil, TierExitNoCuts
	}
	u := v.env.RNG.Intn(V) // rotate tiers randomly for participant diversity
	tResp := pf.p95All(prof)
	g := pf.speedup(prof, u, cuts, tResp)
	if g >= 1 {
		return nil, TierExitNotFaster // the sampled tier is not faster than the mix
	}

	if tResp <= 0 {
		tResp = 180
	}
	demand := float64(j.RemainingDemand())
	if demand <= 0 {
		demand = float64(j.Demand)
	}
	idle, rate := v.supplyFor(j, now)
	// Regime detector: with one task per device per day, every round
	// consumes `demand` fresh arrivals, so a job's long-run round cadence
	// is bounded by demand/rate no matter how fast devices respond. Tier
	// filtering can only pay off when the arrival stream sustains rounds
	// at response-time cadence (the paper's "sufficient device influx"
	// precondition); otherwise response savings just convert into
	// scheduling delay.
	if rate <= 0 || demand/rate*3600 > tResp {
		return nil, TierExitRegime
	}
	tU := acquireSeconds(demand, idle, rate)
	// The filtered acquisition draws on the tier's actual standing pool
	// (counted exactly) plus roughly 1/V of future arrivals.
	idleU := idle / float64(V)
	if v.env.CountIdle != nil {
		req := j.Requirement
		idleU = float64(v.env.CountIdle(func(d *device.Device) bool {
			return req.Eligible(d) && tierOf(d.Capability(), cuts) == u
		}))
	}
	// Tier filtering is reserved for the sufficient-supply regime (§4.3):
	// the chosen tier's standing pool must already cover the request, so
	// filtering costs (almost) no scheduling delay and the g_u response
	// speed-up is a pure win. Outside that regime supply estimates are
	// too noisy for the trade-off to be reliably positive.
	if idleU < demand {
		return nil, TierExitPoolShort
	}
	tF := acquireSeconds(demand, idleU, rate/float64(V))
	if tF+g*tResp < tU+tResp {
		// The covering pool fills the request in the very next
		// scheduling pass or not at all (competing jobs may drain the
		// tier first); lapse almost immediately so a missed fill costs
		// seconds of scheduling delay, never minutes. The response-time
		// benefit is locked in by whatever fraction did come from the
		// tier. The cuts are the profiler's scratch: the filter keeps a
		// copy.
		const grace = 15 * simtime.Second
		return &tierFilter{tier: u, cuts: slices.Clone(cuts), lapseAt: now.Add(grace)}, TierExitFilterApplied
	}
	return nil, TierExitTradeOff
}

// supplyFor returns the job's standing idle eligible devices and the
// eligible arrival rate (devices/hour), preferring the group's current IRS
// allocation.
func (v *Venn) supplyFor(j *job.Job, now simtime.Time) (idle float64, ratePerHour float64) {
	var region device.RegionSet
	g := v.groups[j.Requirement.Key()]
	if g != nil {
		region = g.region
	} else {
		region = v.env.Grid.RegionOf(j.Requirement)
	}
	idle = float64(v.env.IdleInRegion(region))
	if g != nil && g.state != nil && g.state.AllocRate > 0 {
		ratePerHour = g.state.AllocRate
	} else {
		ratePerHour = v.env.RegionRatePerHour(region, now)
	}
	return idle, ratePerHour
}

// acquireSeconds estimates how long acquiring `demand` devices takes given a
// standing idle pool and an arrival rate.
func acquireSeconds(demand, idle, ratePerHour float64) float64 {
	if demand <= idle {
		return 1
	}
	remaining := demand - idle
	if ratePerHour <= 0 {
		return 3600 // pessimistic hour when nothing is known
	}
	return remaining / ratePerHour * 3600
}

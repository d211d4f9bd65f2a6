package core

import (
	"math"

	"venn/internal/job"
	"venn/internal/simtime"
)

// Fairness knob (§4.4). Venn's smallest-demand-first ordering can starve
// large jobs. The knob guarantees each job a scheduling latency no worse
// than fair sharing: with M simultaneous jobs and sd_i the job's JCT without
// contention, the fair-share JCT is T_i = M * sd_i. Reading t_i as the
// service the job has received, demands are adjusted d'_i = d_i*(t_i/T_i)^eps
// within a group and queue lengths q'_j = q_j*(sum T_i / sum t_i)^eps across
// groups, so under-served jobs and groups are promoted. eps = 0 recovers the
// raw heuristic; eps -> infinity makes the fairness multiplier dominate.

// ratio bounds keep the fairness multiplier finite when a job has received
// no service yet (t=0) or far more than its fair share.
const (
	minFairRatio = 1e-3
	maxFairRatio = 1e3
)

// fairShareJCT returns T_i for a job: M times the job's estimated
// no-contention JCT, where M is the number of concurrent jobs when the
// estimate was made.
func (v *Venn) fairShareJCT(j *job.Job) simtime.Duration {
	sd := v.soloJCT(j)
	m := v.fairM[j.ID]
	if m < 1 {
		m = 1
	}
	return simtime.Duration(float64(sd) * float64(m))
}

// soloJCT estimates (and caches) sd_i: the job's JCT if it had the entire
// eligible supply to itself — per round, the time to acquire its demand at
// the eligible rate plus the tail response time.
func (v *Venn) soloJCT(j *job.Job) simtime.Duration {
	if d, ok := v.sdCache[j.ID]; ok {
		return d
	}
	rate := v.env.EligibleRatePerHour(j.Requirement, v.lastNow) // devices/hour
	if rate <= 0 {
		rate = 1
	}
	acquireH := float64(j.Demand) / rate
	respS := v.profiles.p95All(&v.profiles.global)
	if respS <= 0 {
		respS = 180
	}
	perRound := simtime.FromSeconds(acquireH*3600 + respS)
	sd := simtime.Duration(j.Rounds) * perRound
	v.sdCache[j.ID] = sd
	return sd
}

// adjustedDemand returns d'_i for intra-group ordering. Following §4.2.1,
// the remaining demand "can also encompass the total remaining demand for
// all upcoming rounds, provided such data is available" — the simulator
// knows each job's remaining rounds, so Venn orders by total remaining
// service, which is strictly more informative than the single-request need.
func (v *Venn) adjustedDemand(j *job.Job) float64 {
	d := float64(j.RemainingService())
	if d <= 0 {
		d = float64(j.Demand)
	}
	eps := v.opts.Epsilon
	if eps <= 0 {
		return d
	}
	t := float64(j.ServiceTime())
	T := float64(v.fairShareJCT(j))
	if T <= 0 {
		return d
	}
	ratio := clampRatio(t / T)
	return d * math.Pow(ratio, eps)
}

// adjustedQueue returns q'_j for a group's inter-group pressure.
func (v *Venn) adjustedQueue(jobs []*job.Job) float64 {
	q := float64(len(jobs))
	eps := v.opts.Epsilon
	if eps <= 0 || len(jobs) == 0 {
		return q
	}
	var sumT, sumt float64
	for _, j := range jobs {
		sumT += float64(v.fairShareJCT(j))
		sumt += float64(j.ServiceTime())
	}
	if sumt <= 0 {
		sumt = 1
	}
	if sumT <= 0 {
		return q
	}
	ratio := clampRatio(sumT / sumt)
	return q * math.Pow(ratio, eps)
}

func clampRatio(r float64) float64 {
	if math.IsNaN(r) {
		return 1
	}
	if r < minFairRatio {
		return minFairRatio
	}
	if r > maxFairRatio {
		return maxFairRatio
	}
	return r
}

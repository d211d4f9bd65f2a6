package core

import (
	"venn/internal/job"
	"venn/internal/stats"
)

// sampleCap bounds the per-profile sample buffers; old samples are evicted
// FIFO so profiles track the recent response-time regime.
const sampleCap = 512

// minProfileSamples is the number of responses a profile needs before it
// can back a tier decision.
const minProfileSamples = 20

// ringFirstCap is a ring's first capacity: the smallest power of two that
// holds minProfileSamples, so a ring that backs tier decisions grows by
// doubling to sampleCap in four steps.
const ringFirstCap = 32

// ring is a bounded FIFO buffer of float64 samples. The buffer grows on
// demand up to sampleCap, so a job pays for the samples it has.
type ring struct {
	buf  []float64
	next int
}

func (r *ring) add(x float64) {
	if len(r.buf) < sampleCap {
		if r.buf == nil {
			r.buf = make([]float64, 0, ringFirstCap)
		}
		r.buf = append(r.buf, x)
		return
	}
	r.buf[r.next] = x
	r.next = (r.next + 1) % sampleCap
}

func (r *ring) len() int { return len(r.buf) }

// profile accumulates (capability, response-duration) pairs for one job or
// globally. The two rings move in lockstep so pair i is (caps[i], durs[i]).
type profile struct {
	caps ring // device capability scores of responders
	durs ring // response durations in seconds
}

func (p *profile) add(capability, durSeconds float64) {
	p.caps.add(capability)
	p.durs.add(durSeconds)
}

func (p *profile) count() int { return p.caps.len() }

// tierOf maps a capability score to its tier index (0 = slowest) under the
// given thresholds.
func tierOf(capability float64, cuts []float64) int {
	t := 0
	for _, c := range cuts {
		if capability >= c {
			t++
		}
	}
	return t
}

// tierThresholds returns the V-1 capability cut points that split p's
// participants into V equal-mass tiers (ascending capability). The slice is
// pf's and holds until the next call.
func (pf *profiler) tierThresholds(p *profile, v int) []float64 {
	if v <= 1 || p.count() == 0 {
		return nil
	}
	pf.sel = append(pf.sel[:0], p.caps.buf...)
	pf.cuts = pf.cuts[:0]
	for i := 1; i < v; i++ {
		pf.cuts = append(pf.cuts, stats.PercentileSelect(pf.sel, float64(i)/float64(v)*100))
	}
	return pf.cuts
}

// p95All returns the 95th-percentile response duration across all of p's
// tiers — the statistical tail latency the paper uses for response
// collection time.
func (pf *profiler) p95All(p *profile) float64 {
	if p.durs.len() == 0 {
		return 0
	}
	pf.sel = append(pf.sel[:0], p.durs.buf...)
	return stats.PercentileSelect(pf.sel, 95)
}

// p95Tier returns the 95th-percentile response duration of one of p's
// tiers, and the number of samples it is based on.
func (pf *profiler) p95Tier(p *profile, tier int, cuts []float64) (p95 float64, n int) {
	durs := pf.sel[:0]
	for i := range p.caps.buf {
		if tierOf(p.caps.buf[i], cuts) == tier {
			durs = append(durs, p.durs.buf[i])
		}
	}
	pf.sel = durs
	if len(durs) == 0 {
		return 0, 0
	}
	return stats.PercentileSelect(durs, 95), len(durs)
}

// speedup returns g_u = t95_u / t95_all for the tier (Algorithm 2 line 3),
// given all = pf.p95All(p), or 1 (no speed-up) when there is not enough data
// to trust the estimate.
func (pf *profiler) speedup(p *profile, tier int, cuts []float64, all float64) float64 {
	if all <= 0 || p.count() < minProfileSamples {
		return 1
	}
	t95, n := pf.p95Tier(p, tier, cuts)
	if n < minProfileSamples/4 || t95 <= 0 {
		return 1
	}
	return t95 / all
}

// profiler keeps a global profile plus per-job profiles; per-job data is
// preferred once the job has participated enough (its device mix and task
// weight differ from the fleet average).
type profiler struct {
	global profile
	byJob  map[job.ID]*profile
	// sel is the buffer tierThresholds, p95All and p95Tier select in, and
	// cuts holds the latest tierThresholds; both are reused, so Algorithm 2
	// allocates nothing once they have grown.
	sel  []float64
	cuts []float64
}

func newProfiler() *profiler {
	return &profiler{byJob: make(map[job.ID]*profile)}
}

func (pf *profiler) observe(id job.ID, capability, durSeconds float64) {
	pf.global.add(capability, durSeconds)
	jp := pf.byJob[id]
	if jp == nil {
		jp = &profile{}
		pf.byJob[id] = jp
	}
	jp.add(capability, durSeconds)
}

// forJob returns the profile to use for a job's matching decision: the job's
// own when mature, the global otherwise, nil when neither has enough data.
func (pf *profiler) forJob(id job.ID) *profile {
	if jp := pf.byJob[id]; jp != nil && jp.count() >= minProfileSamples {
		return jp
	}
	if pf.global.count() >= minProfileSamples {
		return &pf.global
	}
	return nil
}

// drop discards a completed job's profile.
func (pf *profiler) drop(id job.ID) { delete(pf.byJob, id) }

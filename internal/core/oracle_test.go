package core

import (
	"math"
)

// This file implements the exact reference solver for the IRS problem on
// small instances — the integer program of Appendix B, solved by exhaustive
// search with pruning. It exists to validate the scheduling heuristic: the
// property tests compare Algorithm 1's outcome against the true optimum on
// instances small enough to enumerate (the full problem is NP-hard). Only
// tests call it, so it lives in a test file.

// OptInstance is a small IRS instance: devices arrive at ArrivalTimes (in
// any time unit, ascending), each eligible for a subset of jobs, and job j
// needs Demands[j] devices. The objective is the minimum average scheduling
// delay, where a job's delay is the arrival time of the last device it
// needs (all jobs present from time 0).
type OptInstance struct {
	ArrivalTimes []float64
	// Eligible[i] is a bitmask over jobs device i may serve.
	Eligible []uint32
	Demands  []int
}

// BruteForceAvgDelay exhaustively assigns devices to jobs and returns the
// minimum achievable average completion (scheduling-delay) over all jobs,
// or +Inf if demands cannot be met. Complexity O((m+1)^q); keep q small
// (the tests use q <= 12, m <= 4).
func BruteForceAvgDelay(inst OptInstance) float64 {
	m := len(inst.Demands)
	q := len(inst.ArrivalTimes)
	remaining := make([]int, m)
	copy(remaining, inst.Demands)
	finish := make([]float64, m)

	total := 0
	for _, d := range inst.Demands {
		total += d
	}

	best := math.Inf(1)
	var rec func(i, unmet int, sumDelay float64)
	rec = func(i, unmet int, sumDelay float64) {
		if sumDelay >= best {
			return // prune: delays only grow
		}
		if unmet == 0 {
			if sumDelay < best {
				best = sumDelay
			}
			return
		}
		if i >= q || q-i < unmet {
			return // not enough devices left
		}
		// Option: assign device i to an eligible unmet job.
		for j := 0; j < m; j++ {
			if inst.Eligible[i]&(1<<uint(j)) == 0 || remaining[j] == 0 {
				continue
			}
			remaining[j]--
			add := 0.0
			if remaining[j] == 0 {
				finish[j] = inst.ArrivalTimes[i]
				add = inst.ArrivalTimes[i]
			}
			rec(i+1, unmet-1, sumDelay+add)
			remaining[j]++
		}
		// Option: leave device i unused.
		rec(i+1, unmet, sumDelay)
	}
	rec(0, total, 0)
	if math.IsInf(best, 1) {
		return best
	}
	return best / float64(m)
}

// GreedyOrderAvgDelay evaluates a fixed job order on the instance: each
// arriving device goes to the first job in the order that is eligible and
// still unmet — the assignment rule Venn's plan induces. Returns the average
// delay, or +Inf if demands cannot be met.
func GreedyOrderAvgDelay(inst OptInstance, order []int) float64 {
	m := len(inst.Demands)
	remaining := make([]int, m)
	copy(remaining, inst.Demands)
	unmet := 0
	for _, d := range inst.Demands {
		unmet += d
	}
	sum := 0.0
	for i, t := range inst.ArrivalTimes {
		if unmet == 0 {
			break
		}
		for _, j := range order {
			if inst.Eligible[i]&(1<<uint(j)) == 0 || remaining[j] == 0 {
				continue
			}
			remaining[j]--
			unmet--
			if remaining[j] == 0 {
				sum += t
			}
			break
		}
	}
	if unmet > 0 {
		return math.Inf(1)
	}
	return sum / float64(m)
}

// BestOrderAvgDelay tries every job permutation under the greedy
// first-eligible rule and returns the best average delay — the optimum
// within the fixed-job-order family Venn searches (Algorithm 1 restricts
// itself to this family for tractability; Appendix C argues it contains an
// optimal schedule for intra-group orderings).
func BestOrderAvgDelay(inst OptInstance) float64 {
	m := len(inst.Demands)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	best := math.Inf(1)
	var perm func(k int)
	perm = func(k int) {
		if k == m {
			if v := GreedyOrderAvgDelay(inst, order); v < best {
				best = v
			}
			return
		}
		for i := k; i < m; i++ {
			order[k], order[i] = order[i], order[k]
			perm(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	perm(0)
	return best
}

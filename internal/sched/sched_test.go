package sched

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
)

// bindEnv gives a baseline a minimal environment (only RNG is used).
func bindEnv(b *Baseline) {
	b.Bind(&sim.Env{RNG: stats.NewRNG(1)})
}

// openJob creates a job with an open request.
func openJob(id int, req device.Requirement, demand, rounds int, arrival simtime.Time) *job.Job {
	j := job.New(job.ID(id), req, demand, rounds, arrival)
	j.Start(arrival)
	return j
}

func TestFIFOOrdersByArrival(t *testing.T) {
	b := NewFIFO()
	bindEnv(b)
	late := openJob(1, device.General, 5, 1, 100)
	early := openJob(2, device.General, 5, 1, 50)
	b.OnRequest(late, 100)
	b.OnRequest(early, 100)
	d := device.New(0, 0.5, 0.5)
	if got := b.Assign(d, 200); got.ID != 2 {
		t.Errorf("FIFO picked job %d, want the earlier arrival (2)", got.ID)
	}
}

// queueOrder lists the open requests in the order Assign would try them.
func queueOrder(b *Baseline) []job.ID {
	var ids []job.ID
	b.AssignIf(device.New(0, 0.5, 0.5), func(j *job.Job) bool {
		ids = append(ids, j.ID)
		return false
	})
	return ids
}

func TestFIFOArrivalOrderAndReopen(t *testing.T) {
	b := NewFIFO()
	bindEnv(b)
	// Out-of-order IDs at distinct arrivals, plus an ID tie-break at the
	// same arrival instant.
	j3 := openJob(3, device.General, 1, 1, 10)
	j1 := openJob(1, device.General, 1, 1, 30)
	j2 := openJob(2, device.General, 1, 1, 20)
	j5 := openJob(5, device.General, 1, 1, 20)
	for _, j := range []*job.Job{j3, j1, j2, j5} {
		b.OnRequest(j, 40)
	}
	want := []job.ID{3, 2, 5, 1}
	if got := queueOrder(b); !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}

	// A fulfilled request leaves the queue; on re-open the job is back at
	// its arrival position, not at the tail.
	b.OnRequestFulfilled(j2, 50)
	if got := queueOrder(b); !slices.Equal(got, []job.ID{3, 5, 1}) {
		t.Fatalf("after fulfil: %v", got)
	}
	b.OnRequest(j2, 60)
	if got := queueOrder(b); !slices.Equal(got, want) {
		t.Fatalf("after re-open: %v, want %v", got, want)
	}

	// Duplicate opens are idempotent.
	b.OnRequest(j2, 70)
	if got := queueOrder(b); !slices.Equal(got, want) || len(b.queue) != 4 {
		t.Fatalf("after duplicate open: %v (queue length %d)", got, len(b.queue))
	}
}

func TestByName(t *testing.T) {
	if len(Names) != 4 || !sort.StringsAreSorted(Names) {
		t.Fatalf("Names = %v, want the four scheduler names, sorted", Names)
	}
	for _, name := range Names {
		// Lookup is case-insensitive: flags arrive in whatever case users type.
		for _, spelled := range []string{name, strings.ToUpper(name)} {
			if s, ok := ByName(spelled, core.Options{}); !ok || s == nil {
				t.Fatalf("ByName(%q) = %v, %v", spelled, s, ok)
			}
		}
	}
	if s, ok := ByName("no-such-policy", core.Options{}); ok || s != nil {
		t.Errorf("ByName accepted an unknown name: %v", s)
	}
}

func TestByNameSchedulerNames(t *testing.T) {
	want := map[string]string{"fifo": "FIFO", "random": "Random", "srsf": "SRSF", "venn": "Venn"}
	for _, name := range Names {
		if s, _ := ByName(name, core.Options{}); s == nil || s.Name() != want[name] {
			t.Errorf("ByName(%q) reports Name %v, want %q", name, s, want[name])
		}
	}
	// The options reach Venn.
	if s, _ := ByName("venn", core.Options{DisableMatching: true}); s.Name() != "Venn-w/o-match" {
		t.Errorf("ByName(venn, DisableMatching).Name() = %q, want Venn-w/o-match", s.Name())
	}
}

func TestSRSFOrdersByRemainingService(t *testing.T) {
	b := NewSRSF()
	bindEnv(b)
	big := openJob(1, device.General, 100, 10, 0)
	small := openJob(2, device.General, 5, 2, 10)
	b.OnRequest(big, 10)
	b.OnRequest(small, 10)
	d := device.New(0, 0.5, 0.5)
	if got := b.Assign(d, 20); got.ID != 2 {
		t.Errorf("SRSF picked job %d, want the small job (2)", got.ID)
	}
}

func TestRandomIsSeedDeterministicButShuffled(t *testing.T) {
	pickFirst := func(seed int64) job.ID {
		b := NewRandom()
		b.Bind(&sim.Env{RNG: stats.NewRNG(seed)})
		for i := 0; i < 8; i++ {
			b.OnRequest(openJob(i, device.General, 5, 1, 0), 0)
		}
		return b.Assign(device.New(0, 0.5, 0.5), 1).ID
	}
	if pickFirst(1) != pickFirst(1) {
		t.Error("same seed must give same random order")
	}
	varies := false
	first := pickFirst(1)
	for seed := int64(2); seed < 12; seed++ {
		if pickFirst(seed) != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("random order never varies across seeds")
	}
}

func TestEligibilityHonored(t *testing.T) {
	b := NewFIFO()
	bindEnv(b)
	hp := openJob(1, device.HighPerf, 5, 1, 0)
	gen := openJob(2, device.General, 5, 1, 1)
	b.OnRequest(hp, 1)
	b.OnRequest(gen, 1)
	weak := device.New(0, 0.2, 0.2)
	if got := b.Assign(weak, 2); got.ID != 2 {
		t.Errorf("weak device must skip the High-Perf job, got job %d", got.ID)
	}
	strong := device.New(1, 0.9, 0.9)
	if got := b.Assign(strong, 2); got.ID != 1 {
		t.Errorf("strong device should go to the earlier High-Perf job, got %d", got.ID)
	}
}

func TestQueueRemovalOnFulfilledAndDone(t *testing.T) {
	b := NewFIFO()
	bindEnv(b)
	j := openJob(1, device.General, 1, 1, 0)
	b.OnRequest(j, 0)
	if len(b.queue) != 1 {
		t.Fatal("queued")
	}
	b.OnRequestFulfilled(j, 1)
	if len(b.queue) != 0 {
		t.Fatal("fulfilled request must leave the queue")
	}
	b.OnRequest(j, 2)
	b.OnJobDone(j, 3)
	if len(b.queue) != 0 {
		t.Fatal("done job must leave the queue")
	}
}

func TestAssignSkipsNonOpenJobs(t *testing.T) {
	b := NewFIFO()
	bindEnv(b)
	j := openJob(1, device.General, 1, 1, 0)
	b.OnRequest(j, 0)
	// Fill the job's demand directly; the queue entry is now stale.
	j.AddAssignment(1)
	if got := b.Assign(device.New(0, 0.5, 0.5), 2); got != nil {
		t.Errorf("assigned to a collecting job: %v", got)
	}
}

func TestReopenUpdatesPriority(t *testing.T) {
	b := NewSRSF()
	bindEnv(b)
	j := openJob(1, device.General, 10, 5, 0)
	b.OnRequest(j, 0)
	// Simulate progress: complete rounds so remaining service shrinks,
	// then re-request; the priority must reflect the new value.
	pr0 := b.queue[0].priority
	for r := 0; r < 2; r++ {
		for i := 0; i < 10; i++ {
			j.AddAssignment(simtime.Time(10 + i))
		}
		for i := 0; i < 8; i++ {
			j.AddResponse(simtime.Time(30 + i))
		}
		j.CompleteRound(simtime.Time(40 + r))
	}
	b.OnRequest(j, 50)
	if b.queue[0].priority >= pr0 {
		t.Errorf("priority must drop with remaining service: %v -> %v", pr0, b.queue[0].priority)
	}
	if len(b.queue) != 1 {
		t.Error("re-request must not duplicate the queue entry")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyRandom.String() != "Random" || PolicyFIFO.String() != "FIFO" || PolicySRSF.String() != "SRSF" {
		t.Error("policy names wrong")
	}
	if Policy(99).String() != "Unknown" {
		t.Error("unknown policy name")
	}
}

package job

import (
	"testing"
	"testing/quick"

	"venn/internal/device"
	"venn/internal/simtime"
)

func newTestJob(demand, rounds int) *Job {
	return New(1, device.General, demand, rounds, 0)
}

func TestLifecycleSingleRound(t *testing.T) {
	j := newTestJob(5, 1)
	if j.State() != StatePending {
		t.Fatal("new job must be pending")
	}
	j.Start(100)
	if j.State() != StateScheduling || j.Round() != 1 {
		t.Fatalf("after Start: %v round %d", j.State(), j.Round())
	}
	if j.RemainingDemand() != 5 {
		t.Fatalf("RemainingDemand = %d", j.RemainingDemand())
	}
	// Assign 5 devices over time.
	for i := 0; i < 4; i++ {
		if full := j.AddAssignment(simtime.Time(200 + i)); full {
			t.Fatal("not yet fully assigned")
		}
	}
	if full := j.AddAssignment(1000); !full {
		t.Fatal("5th assignment must complete scheduling")
	}
	if j.State() != StateCollecting {
		t.Fatal("must be collecting")
	}
	// Target is ceil(0.8*5) = 4.
	if j.TargetResponses() != 4 {
		t.Fatalf("TargetResponses = %d", j.TargetResponses())
	}
	for i := 0; i < 3; i++ {
		if done := j.AddResponse(simtime.Time(1100 + i)); done {
			t.Fatal("round complete too early")
		}
	}
	if done := j.AddResponse(2000); !done {
		t.Fatal("4th response must complete the round")
	}
	if !j.CanComplete() {
		t.Fatal("CanComplete must hold")
	}
	if jobDone := j.CompleteRound(2000); !jobDone {
		t.Fatal("single-round job must be done")
	}
	if !j.Done() || j.JCT() != 2000 {
		// JCT runs from arrival (t=0), not from Start.
		t.Fatalf("JCT = %v, want 2000ms", j.JCT())
	}
	rec := j.Records()
	if len(rec) != 1 || len(rec[0].Attempts) != 1 {
		t.Fatalf("records: %+v", rec)
	}
	a := rec[0].Attempts[0]
	if a.SchedulingDelay() != 900 {
		t.Errorf("sched delay = %v, want 900ms", a.SchedulingDelay())
	}
	if a.ResponseTime() != 1000 {
		t.Errorf("response time = %v, want 1000ms", a.ResponseTime())
	}
}

func TestMultiRoundProgression(t *testing.T) {
	j := newTestJob(2, 3)
	j.Start(0)
	for r := 1; r <= 3; r++ {
		if j.Round() != r {
			t.Fatalf("round = %d, want %d", j.Round(), r)
		}
		j.AddAssignment(simtime.Time(r * 100))
		j.AddAssignment(simtime.Time(r*100 + 1))
		j.AddResponse(simtime.Time(r*100 + 10))
		j.AddResponse(simtime.Time(r*100 + 20))
		done := j.CompleteRound(simtime.Time(r*100 + 20))
		if (r == 3) != done {
			t.Fatalf("round %d done=%v", r, done)
		}
	}
	if j.CompletedRounds() != 3 {
		t.Errorf("CompletedRounds = %d", j.CompletedRounds())
	}
	if j.RemainingRounds() != 0 || j.RemainingService() != 0 {
		t.Error("finished job must have no remaining service")
	}
}

func TestResponsesDuringScheduling(t *testing.T) {
	// Early-assigned devices can respond before the request is fully
	// assigned; the round must not complete until both conditions hold.
	j := newTestJob(2, 1)
	j.Start(0)
	j.AddAssignment(10)
	if done := j.AddResponse(20); done {
		t.Fatal("cannot complete while scheduling")
	}
	if full := j.AddAssignment(30); !full {
		t.Fatal("fully assigned")
	}
	// Target ceil(0.8*2)=2, so we need the second response.
	if j.CanComplete() {
		t.Fatal("one response of two must not complete")
	}
	if done := j.AddResponse(40); !done {
		t.Fatal("second response completes round")
	}
}

// totals sums the scheduling delay, the response-collection time and the
// aborted attempts over a job's records.
func totals(j *Job) (sched, resp simtime.Duration, aborts int) {
	for _, r := range j.Records() {
		for _, a := range r.Attempts {
			sched += a.SchedulingDelay()
			resp += a.ResponseTime()
			if a.Aborted {
				aborts++
			}
		}
	}
	return sched, resp, aborts
}

func TestAbortAndRetry(t *testing.T) {
	j := newTestJob(2, 1)
	j.Start(0)
	j.AddAssignment(10)
	j.AddAssignment(20)
	// Target ceil(0.8*2)=2: one dropout of two puts it out of reach.
	if out := j.Report(1, false, 500); out != Aborted {
		t.Fatalf("dropout outcome = %b, want Aborted", out)
	}
	if j.State() != StateScheduling || j.Attempt() != 2 {
		t.Fatalf("abort must reopen scheduling as attempt 2: %v attempt %d", j.State(), j.Attempt())
	}
	if j.RemainingDemand() != 2 {
		t.Fatal("retry needs full demand again")
	}
	if _, _, aborts := totals(j); aborts != 1 {
		t.Fatalf("aborted attempts = %d", aborts)
	}
	// Finish on retry.
	j.AddAssignment(600)
	j.AddAssignment(610)
	j.AddResponse(700)
	j.AddResponse(710)
	if !j.CanComplete() {
		t.Fatal("retry must be completable")
	}
	j.CompleteRound(710)
	if !j.Done() {
		t.Fatal("job must finish after retry")
	}
	rec := j.Records()[0]
	if len(rec.Attempts) != 2 || !rec.Attempts[0].Aborted || rec.Attempts[1].Aborted {
		t.Fatalf("attempt records wrong: %+v", rec.Attempts)
	}
}

func TestDeadlineInterpolation(t *testing.T) {
	small := newTestJob(1, 1)
	big := newTestJob(5000, 1)
	mid := newTestJob(500, 1)
	if d := small.Deadline(); d < MinDeadline || d > MinDeadline+simtime.Second {
		t.Errorf("tiny job deadline = %v, want ~MinDeadline", d)
	}
	if big.Deadline() != MaxDeadline {
		t.Errorf("huge job deadline = %v", big.Deadline())
	}
	d := mid.Deadline()
	if d <= MinDeadline || d >= MaxDeadline {
		t.Errorf("mid deadline %v must be interior", d)
	}
}

func TestTargetResponsesCeil(t *testing.T) {
	cases := []struct{ demand, want int }{
		{1, 1}, {2, 2}, {4, 4}, {5, 4}, {10, 8}, {100, 80}, {3, 3},
	}
	for _, c := range cases {
		j := newTestJob(c.demand, 1)
		if got := j.TargetResponses(); got != c.want {
			t.Errorf("TargetResponses(demand=%d) = %d, want %d", c.demand, got, c.want)
		}
	}
}

func TestServiceTimeAccumulates(t *testing.T) {
	j := newTestJob(1, 2)
	j.Start(0)
	j.AddAssignment(100)
	j.AddResponse(400)
	j.CompleteRound(400)
	if j.ServiceTime() != 300 {
		t.Fatalf("ServiceTime = %v, want 300ms", j.ServiceTime())
	}
	j.AddAssignment(500)
	if out := j.Expire(2, 900); out != Aborted {
		t.Fatalf("deadline outcome = %b, want Aborted", out)
	}
	// Aborted attempt adds its active window (500->900).
	if j.ServiceTime() != 700 {
		t.Fatalf("ServiceTime after abort = %v, want 700ms", j.ServiceTime())
	}
}

func TestMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		fn()
	}
	j := newTestJob(1, 1)
	mustPanic("AddAssignment before Start", func() { j.AddAssignment(0) })
	mustPanic("Assign before Start", func() { j.Assign(device.New(0, 0.5, 0.5), 0) })
	mustPanic("CompleteRound before Start", func() { j.CompleteRound(0) })
	j.Start(0)
	mustPanic("double Start", func() { j.Start(0) })
	hp := New(2, device.HighPerf, 1, 1, 0)
	hp.Start(0)
	mustPanic("Assign of an ineligible device", func() { hp.Assign(device.New(0, 0.1, 0.1), 0) })
}

func TestConstructorClamps(t *testing.T) {
	j := New(1, device.General, 0, 0, 5)
	if j.Demand != 1 || j.Rounds != 1 {
		t.Errorf("constructor must clamp demand/rounds to 1: %d %d", j.Demand, j.Rounds)
	}
	if j.TaskScale != 1.0 {
		t.Errorf("TaskScale default = %v", j.TaskScale)
	}
}

// TestInvariantProperty drives a job through random valid event sequences
// and checks internal consistency at every step.
func TestInvariantProperty(t *testing.T) {
	f := func(script []uint8, demandRaw, roundsRaw uint8) bool {
		demand := int(demandRaw%6) + 1
		rounds := int(roundsRaw%4) + 1
		j := New(1, device.General, demand, rounds, 0)
		d := device.New(0, 0.5, 0.5)
		j.Start(0)
		now := simtime.Time(1)
		for _, op := range script {
			if j.Done() {
				break
			}
			now++
			switch op % 4 {
			case 0: // assignment if open
				if j.State() == StateScheduling {
					j.Assign(d, now)
				}
			case 1, 2: // response or dropout of a previously assigned device
				if j.AttemptResponses()+j.failures < j.AttemptAssigned() {
					j.Report(j.Attempt(), op%4 == 1, now)
				}
			case 3: // the deadline
				j.Expire(j.Attempt(), now)
			}
			// A collecting attempt is never at its target: it finished.
			if j.CanComplete() {
				return false
			}
			// Invariants.
			if j.AttemptResponses() > j.AttemptAssigned() {
				return false
			}
			if j.AttemptAssigned() > j.Demand {
				return false
			}
			if j.Round() < 1 || (!j.Done() && j.Round() > j.Rounds) {
				return false
			}
			if j.RemainingDemand() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestAggregateMetrics(t *testing.T) {
	j := newTestJob(1, 2)
	j.Start(0)
	j.AddAssignment(100)
	j.AddResponse(200)
	j.CompleteRound(200)
	j.AddAssignment(300)
	j.AddResponse(450)
	j.CompleteRound(450)
	sched, resp, aborts := totals(j)
	if sched != 200 { // 100 + 100
		t.Errorf("total scheduling delay = %v", sched)
	}
	if resp != 250 { // 100 + 150
		t.Errorf("total response time = %v", resp)
	}
	if aborts != 0 {
		t.Errorf("aborted attempts = %d", aborts)
	}
	if j.String() == "" {
		t.Error("String empty")
	}
}

package policy

import (
	"testing"

	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/trace"
)

func TestRegistryNames(t *testing.T) {
	for _, name := range []string{"venn", "fifo", "srsf", "random"} {
		if !Valid(name) {
			t.Errorf("built-in policy %q missing from registry", name)
		}
		p, err := New(name, Config{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p == nil {
			t.Fatalf("New(%q) returned nil policy", name)
		}
	}
	if Valid("no-such-policy") {
		t.Error("unknown name must not validate")
	}
	if _, err := New("no-such-policy", Config{}); err == nil {
		t.Error("New must reject unknown names")
	}
	// Lookup is case-insensitive: flags arrive in whatever case users type.
	if !Valid("FIFO") || !Valid("Venn") {
		t.Error("registry lookup must be case-insensitive")
	}
}

func TestRegistryPolicyNames(t *testing.T) {
	wantName := map[string]string{
		"venn":   "Venn",
		"fifo":   "Venn-w/o-sched", // FIFO order, tier matching in force
		"srsf":   "SRSF",
		"random": "Random",
	}
	for reg, want := range wantName {
		if got := MustNew(reg, Config{}).Name(); got != want {
			t.Errorf("policy %q reports Name %q, want %q", reg, got, want)
		}
	}
	if got := NewFIFOMatch(core.Options{DisableMatching: true}).Name(); got != "Venn-w/o-both" {
		t.Errorf("FIFOMatch w/o matching Name = %q, want Venn-w/o-both", got)
	}
}

// buildEngine wires a policy into a real engine over a hand-made fleet.
func buildEngine(t *testing.T, p Policy, fleet *trace.Fleet, jobs []*job.Job) *sim.Engine {
	t.Helper()
	eng, err := sim.NewEngine(sim.Config{
		Fleet:     fleet,
		Jobs:      jobs,
		Scheduler: p,
		Response:  sim.ResponseModel{Median: 5 * simtime.Second, P95: 10 * simtime.Second, DisableFailures: true},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// mixedFleet: devices alternate between high-end and low-end, checking in
// one per minute.
func mixedFleet(n int, horizon simtime.Duration) *trace.Fleet {
	f := &trace.Fleet{Horizon: horizon}
	for i := 0; i < n; i++ {
		var d *device.Device
		if i%2 == 0 {
			d = device.New(device.ID(i), 0.9, 0.9)
		} else {
			d = device.New(device.ID(i), 0.2, 0.2)
		}
		f.Devices = append(f.Devices, d)
		start := simtime.Time(i+1) * simtime.Time(simtime.Minute)
		f.Intervals = append(f.Intervals, []trace.Interval{{Start: start, End: simtime.Time(horizon)}})
	}
	return f
}

func TestFIFOAblationOrdersByArrival(t *testing.T) {
	fleet := mixedFleet(80, 6*simtime.Hour)
	first := job.New(0, device.General, 10, 2, 0)
	second := job.New(1, device.General, 4, 1, simtime.Time(simtime.Minute))
	p := NewFIFOMatch(core.Options{DisableMatching: true})
	eng := buildEngine(t, p, fleet, []*job.Job{first, second})
	res := eng.Run()
	jct0, ok0 := res.JobJCT(0)
	jct1, ok1 := res.JobJCT(1)
	if !ok0 || !ok1 {
		t.Fatalf("both jobs must complete: %v", res)
	}
	// Under FIFO the earlier, larger job holds priority across rounds,
	// so the later small job cannot finish dramatically earlier.
	if jct1 < jct0/4 {
		t.Errorf("FIFO ablation let the later job jump the queue: %0.fs vs %.0fs", jct1, jct0)
	}
}

// TestFIFOMatchForwardsMatching pins that the registry's "fifo" policy keeps
// tier-based matching in force: the inner Venn core must see every lifecycle
// event (its tier filters drive TierAccepts during the FIFO walk).
func TestFIFOMatchForwardsMatching(t *testing.T) {
	fleet := mixedFleet(60, 4*simtime.Hour)
	jobs := []*job.Job{
		job.New(0, device.General, 8, 2, 0),
		job.New(1, device.HighPerf, 6, 1, 0),
	}
	p := MustNew("fifo", Config{Core: core.DefaultOptions()}).(*FIFO)
	eng := buildEngine(t, p, fleet, jobs)
	res := eng.Run()
	if len(res.Completed) != 2 {
		t.Fatalf("both jobs must complete: %v", res)
	}
	if p.match == nil {
		t.Fatal("registry fifo policy must carry the matching core")
	}
	if p.QueueLen() != 0 {
		t.Errorf("queue must drain after completion, still holds %d", p.QueueLen())
	}
}

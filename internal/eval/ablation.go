package eval

import (
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/trace"
	"venn/internal/workload"
)

// Ablations beyond the paper's figures (DESIGN.md §6): how much does the
// 24-hour supply-averaging window of §4.4 matter, and how sensitive is the
// system to the round deadline policy?

// WindowAblationResult reports Venn's speed-up over Random for different
// supply-averaging windows.
type WindowAblationResult struct {
	WindowsHours []float64
	Speedup      map[float64]float64
}

// SupplyWindowAblation sweeps the time-series-database averaging window.
// The paper argues 24h averaging makes the scheduler farsighted against the
// diurnal supply pattern; very short windows chase the momentary rate.
func SupplyWindowAblation(scale Scale, seeds int) (*WindowAblationResult, error) {
	if seeds <= 0 {
		seeds = 3
	}
	res := &WindowAblationResult{
		WindowsHours: []float64{3, 12, 24, 48},
		Speedup:      map[float64]float64{},
	}
	for _, wh := range res.WindowsHours {
		window := simtime.Duration(wh * float64(simtime.Hour))
		var acc []float64
		for s := 0; s < seeds; s++ {
			setup := NewSetup(scale, int64(11000+s))
			fleet := trace.GenerateFleet(setup.Fleet)
			wl := workload.Generate(setup.Jobs)
			random, err := runWithWindow(fleet, wl, newRandomBaseline, setup.Seed+100, window)
			if err != nil {
				return nil, err
			}
			venn, err := runWithWindow(fleet, wl, func() sim.Scheduler {
				return StandardSchedulers()["Venn"]()
			}, setup.Seed+100, window)
			if err != nil {
				return nil, err
			}
			acc = append(acc, venn.SpeedupOver(random))
		}
		res.Speedup[wh] = stats.Mean(acc)
	}
	return res, nil
}

func runWithWindow(fleet *trace.Fleet, wl *workload.Workload, factory func() sim.Scheduler, seed int64, window simtime.Duration) (*sim.Result, error) {
	fleet.Reset()
	run := wl.Clone()
	eng, err := sim.NewEngine(sim.Config{
		Fleet:      fleet,
		Jobs:       run.Jobs,
		Scheduler:  factory(),
		Seed:       seed,
		TSDBWindow: window,
	})
	if err != nil {
		return nil, err
	}
	return eng.Run(), nil
}

// Render prints the window sweep.
func (r *WindowAblationResult) Render() string {
	t := NewTable("Ablation: supply-averaging window (Venn speed-up vs Random)",
		"Window (h)", "Speedup")
	for _, wh := range r.WindowsHours {
		t.AddRow(wh, FormatSpeedup(r.Speedup[wh]))
	}
	return t.Render()
}

// TaskHeavinessAblation reports how the Venn-over-Random speed-up shifts as
// per-task duration grows relative to the round deadline (heavier models
// abort more rounds).
type TaskHeavinessAblation struct {
	TaskScales []float64
	Speedup    map[float64]float64
	AbortFrac  map[float64]float64 // aborted attempts per completed round, Venn
}

// TaskHeaviness sweeps the per-job task-duration multiplier.
func TaskHeaviness(scale Scale, seeds int) (*TaskHeavinessAblation, error) {
	if seeds <= 0 {
		seeds = 3
	}
	res := &TaskHeavinessAblation{
		TaskScales: []float64{0.5, 1.5, 3.0},
		Speedup:    map[float64]float64{},
		AbortFrac:  map[float64]float64{},
	}
	for _, ts := range res.TaskScales {
		var sp, ab []float64
		for s := 0; s < seeds; s++ {
			setup := NewSetup(scale, int64(12000+s))
			setup.Jobs.TaskScaleLo = ts
			setup.Jobs.TaskScaleHi = ts + 0.01
			cmp, err := Compare(setup, pick(StandardSchedulers(), "Random", "Venn"))
			if err != nil {
				return nil, err
			}
			sp = append(sp, cmp.Speedup("Venn", "Random"))
			venn := cmp.Results["Venn"]
			rounds := 0
			for _, j := range venn.Completed {
				rounds += j.Rounds
			}
			if rounds > 0 {
				ab = append(ab, float64(venn.Aborts)/float64(rounds))
			}
		}
		res.Speedup[ts] = stats.Mean(sp)
		res.AbortFrac[ts] = stats.Mean(ab)
	}
	return res, nil
}

// Render prints the heaviness sweep.
func (r *TaskHeavinessAblation) Render() string {
	t := NewTable("Ablation: task heaviness vs deadline",
		"TaskScale", "Venn speedup", "Aborts per round")
	for _, ts := range r.TaskScales {
		t.AddRow(ts, FormatSpeedup(r.Speedup[ts]),
			FormatSpeedup(r.AbortFrac[ts]))
	}
	return t.Render()
}

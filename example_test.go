package venn_test

import (
	"fmt"
	"log"

	venn "venn"
	"venn/internal/fl"
	"venn/internal/stats"
)

// Generate a fleet and a workload, run them under Venn and under random
// matching, and compare average JCT: the library's core loop.
func Example() {
	// A fleet of 3000 edge devices with diurnal availability and
	// heterogeneous hardware, over a 4-day horizon.
	fleet := venn.GenerateFleet(venn.FleetConfig{NumDevices: 3000, Seed: 1})

	// 20 CL jobs sampled from the production-like demand trace, arriving
	// by a Poisson process, each mapped to one of the four device
	// eligibility categories.
	wl := venn.GenerateWorkload(venn.WorkloadConfig{NumJobs: 20, Seed: 2})

	random, err := venn.Simulate(venn.SimConfig{
		Fleet: fleet, Workload: wl, Scheduler: venn.NewRandom(), Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	vennRes, err := venn.Simulate(venn.SimConfig{
		Fleet: fleet, Workload: wl,
		Scheduler: venn.NewVenn(venn.SchedulerOptions{}), Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Random:", random)
	fmt.Println("Venn:  ", vennRes)
	fmt.Printf("\nVenn speed-up over Random: %.2fx\n", vennRes.SpeedupOver(random))
	// Output:
	// Random: Random: 20/20 jobs done, avg JCT 2:11:10.658 (median 0:04:04.460), avg sched delay 0:37:56.647, avg resp time 0:01:12.803, 1219 assignments, 1 aborts
	// Venn:   Venn: 20/20 jobs done, avg JCT 1:33:53.787 (median 0:04:04.460), avg sched delay 0:26:51.848, avg resp time 0:01:09.880, 1219 assignments, 1 aborts
	//
	// Venn speed-up over Random: 1.40x
}

// The starvation-prevention knob (§4.4). A workload of many small jobs plus
// a few very large ones runs with epsilon 0 (pure efficiency) and
// increasing fairness settings; the report shows the efficiency/fairness
// trade-off on the large jobs' JCTs.
func Example_fairness() {
	fleet := venn.GenerateFleet(venn.FleetConfig{NumDevices: 3000, Seed: 71})

	build := func() []*venn.Job {
		var jobs []*venn.Job
		arrival := venn.Duration(0)
		id := 0
		add := func(name string, demand, rounds int) {
			j := venn.NewJob(id, venn.General, demand, rounds, arrival)
			j.Name = name
			jobs = append(jobs, j)
			id++
			arrival += 10 * venn.Minute
		}
		// Two elephants arrive first, then a stream of mice that pure
		// smallest-first scheduling would let starve them.
		add("elephant-0", 120, 20)
		add("elephant-1", 100, 18)
		for i := 0; i < 12; i++ {
			add(fmt.Sprintf("mouse-%d", i), 20, 4)
		}
		return jobs
	}

	fmt.Printf("%-8s  %-14s  %-14s  %-14s\n", "epsilon", "avg JCT (all)", "avg JCT (big)", "avg JCT (small)")
	for _, eps := range []float64{0, 1, 2, 4} {
		res, err := venn.Simulate(venn.SimConfig{
			Fleet:     fleet,
			Jobs:      build(),
			Scheduler: venn.NewVenn(venn.SchedulerOptions{Epsilon: eps}),
			Seed:      81,
		})
		if err != nil {
			log.Fatal(err)
		}
		var all, big, small []float64
		for _, j := range res.Completed {
			m := j.JCT().Minutes()
			all = append(all, m)
			if j.Demand >= 100 {
				big = append(big, m)
			} else {
				small = append(small, m)
			}
		}
		fmt.Printf("%-8.0f  %10.0f min  %10.0f min  %10.0f min\n",
			eps, stats.Mean(all), stats.Mean(big), stats.Mean(small))
	}
	fmt.Println("\n(higher epsilon trades average JCT for protecting the large jobs)")
	// Output:
	// epsilon   avg JCT (all)   avg JCT (big)   avg JCT (small)
	// 0                369 min        2215 min          62 min
	// 1                387 min        2215 min          83 min
	// 2                684 min        2197 min         432 min
	// 4               2222 min        2124 min        2238 min
	//
	// (higher epsilon trades average JCT for protecting the large jobs)
}

// The paper's motivating scenario: a production fleet shared by
// keyboard-prediction, speech, health-study and video super-resolution jobs
// with overlapping device requirements. Shows per-family JCT under every
// scheduler and how Venn protects scarce-resource jobs.
func Example_multitenant() {
	fleet := venn.GenerateFleet(venn.FleetConfig{NumDevices: 4000, Seed: 11})

	// Four application families with requirements that nest and overlap:
	// keyboard runs anywhere; speech needs compute; health analytics
	// needs memory; video super-resolution needs both.
	apps := []struct {
		name   string
		req    venn.Requirement
		demand int
		rounds int
		count  int
	}{
		{"keyboard", venn.General, 60, 12, 4},
		{"speech", venn.ComputeRich, 40, 10, 3},
		{"health", venn.MemoryRich, 30, 8, 3},
		{"videoSR", venn.HighPerf, 25, 8, 2},
	}

	var jobs []*venn.Job
	arrival := venn.Duration(0)
	id := 0
	for _, app := range apps {
		for i := 0; i < app.count; i++ {
			j := venn.NewJob(id, app.req, app.demand, app.rounds, arrival)
			j.Name = fmt.Sprintf("%s-%d", app.name, i)
			jobs = append(jobs, j)
			id++
			arrival += 25 * venn.Minute
		}
	}

	schedulers := []struct {
		name string
		mk   func() venn.Scheduler
	}{
		{"Random", venn.NewRandom},
		{"FIFO", venn.NewFIFO},
		{"SRSF", venn.NewSRSF},
		{"Venn", func() venn.Scheduler { return venn.NewVenn(venn.SchedulerOptions{}) }},
	}

	fmt.Printf("%-8s  %-10s  %-10s  %-10s  %s\n", "sched", "keyboard", "speech", "health", "videoSR")
	for _, s := range schedulers {
		// Fresh copies of the hand-built jobs for each run.
		runJobs := make([]*venn.Job, len(jobs))
		for i, j := range jobs {
			nj := venn.NewJob(int(j.ID), j.Requirement, j.Demand, j.Rounds, venn.Duration(j.Arrival))
			nj.Name = j.Name
			runJobs[i] = nj
		}
		res, err := venn.Simulate(venn.SimConfig{
			Fleet: fleet, Jobs: runJobs, Scheduler: s.mk(), Seed: 21})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s", s.name)
		for _, app := range apps {
			var jcts []float64
			for _, j := range res.Completed {
				if j.Requirement.Name == app.req.Name {
					jcts = append(jcts, j.JCT().Minutes())
				}
			}
			fmt.Printf("  %7.0f min", stats.Mean(jcts))
		}
		fmt.Println()
	}
	fmt.Println("\n(avg JCT per application family; Venn should cut the scarce-resource families most)")
	// Output:
	// sched     keyboard    speech      health      videoSR
	// Random       1436 min     2060 min      928 min     2274 min
	// FIFO          625 min     1773 min     1998 min     2715 min
	// SRSF         1161 min     1262 min     1035 min     1163 min
	// Venn         1129 min     1175 min     1147 min     1739 min
	//
	// (avg JCT per application family; Venn should cut the scarce-resource families most)
}

// End-to-end collaborative learning: two CL jobs train surrogate models with
// federated averaging while Venn manages the shared device pool. The
// RoundObserver hook connects the resource manager to the training.
func Example_federated() {
	const devices = 1500
	fleet := venn.GenerateFleet(venn.FleetConfig{NumDevices: devices, Seed: 31})

	// One dataset per job: each device holds a non-IID local shard.
	dsA := fl.GenerateDataset(fl.DataConfig{Clients: devices, Alpha: 0.3, Seed: 41})
	dsB := fl.GenerateDataset(fl.DataConfig{Clients: devices, Alpha: 0.3, Seed: 42})
	// trainers[i] trains job i.
	trainers := []*fl.Trainer{
		fl.NewTrainer(dsA, fl.TrainConfig{Seed: 51}),
		fl.NewTrainer(dsB, fl.TrainConfig{Seed: 52}),
	}

	jobs := []*venn.Job{
		venn.NewJob(0, venn.General, 30, 10, 0),
		venn.NewJob(1, venn.ComputeRich, 25, 10, 10*venn.Minute),
	}

	observer := func(j *venn.Job, round int, participants []venn.DeviceID, now venn.Time) {
		ids := make([]int, len(participants))
		for i, p := range participants {
			ids[i] = int(p)
		}
		rr := trainers[int(j.ID)].RunRound(ids)
		fmt.Printf("t=%-12v %s round %2d: %3d participants, %2d labels, test acc %.3f\n",
			now, j.Name, round, rr.Participants, rr.Diversity, rr.TestAccuracy)
	}

	res, err := venn.Simulate(venn.SimConfig{
		Fleet:     fleet,
		Jobs:      jobs,
		Scheduler: venn.NewVenn(venn.SchedulerOptions{}),
		Seed:      61,
		Observer:  observer,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n" + res.String())
	for id, tr := range trainers {
		fmt.Printf("job%d final accuracy: %.3f after %d rounds\n", id, tr.FinalAccuracy(), tr.Rounds())
	}
	// Output:
	// t=0:10:26.581  job0 round  1:  25 participants, 10 labels, test acc 0.984
	// t=0:33:26.093  job1 round  1:  23 participants, 10 labels, test acc 0.987
	// t=0:36:10.704  job0 round  2:  24 participants, 10 labels, test acc 0.989
	// t=0:50:32.430  job0 round  3:  24 participants, 10 labels, test acc 0.987
	// t=0:57:28.362  job1 round  2:  22 participants, 10 labels, test acc 0.996
	// t=1:11:02.306  job1 round  3:  21 participants, 10 labels, test acc 0.996
	// t=1:16:22.891  job0 round  4:  25 participants, 10 labels, test acc 0.987
	// t=1:32:21.856  job1 round  4:  22 participants, 10 labels, test acc 0.996
	// t=1:42:01.440  job0 round  5:  26 participants, 10 labels, test acc 0.991
	// t=1:55:28.257  job1 round  5:  23 participants, 10 labels, test acc 0.996
	// t=2:08:11.055  job0 round  6:  24 participants, 10 labels, test acc 0.990
	// t=2:28:37.835  job1 round  6:  22 participants, 10 labels, test acc 0.997
	// t=2:33:36.924  job0 round  7:  24 participants, 10 labels, test acc 0.991
	// t=2:49:39.556  job1 round  7:  23 participants, 10 labels, test acc 0.997
	// t=3:11:59.071  job0 round  8:  28 participants, 10 labels, test acc 0.993
	// t=3:16:21.181  job1 round  8:  22 participants, 10 labels, test acc 0.997
	// t=3:45:51.187  job0 round  9:  24 participants, 10 labels, test acc 0.991
	// t=4:25:41.196  job1 round  9:  21 participants, 10 labels, test acc 0.997
	// t=4:31:14.965  job0 round 10:  24 participants, 10 labels, test acc 0.993
	// t=5:24:13.487  job1 round 10:  24 participants, 10 labels, test acc 0.996
	//
	// Venn: 2/2 jobs done, avg JCT 4:52:44.226 (median 4:52:44.226), avg sched delay 0:29:11.335, avg resp time 0:00:05.088, 550 assignments, 0 aborts
	// job0 final accuracy: 0.993 after 10 rounds
	// job1 final accuracy: 0.996 after 10 rounds
}

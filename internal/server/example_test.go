package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"venn/internal/server"
	"venn/internal/stats"
)

// The resource manager as an in-process HTTP service, driven by simulated
// devices and jobs over the wire: the full Figure 6 workflow (request,
// check-in, assign, participate, report) without any simulator involvement.
func ExampleHandler() {
	// A pinned clock keeps the reported JCT independent of wall time.
	start := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	m := server.NewManager(server.Config{Clock: func() time.Time { return start }})
	srv := httptest.NewServer(server.Handler(m))
	defer srv.Close()

	// Two product teams register jobs.
	kbd := registerJob(srv.URL, server.JobSpec{
		Name: "keyboard", Category: "General", DemandPerRound: 8, Rounds: 2})
	emoji := registerJob(srv.URL, server.JobSpec{
		Name: "emoji", Category: "High-Perf", DemandPerRound: 4, Rounds: 2})
	fmt.Printf("registered: %s (#%d), %s (#%d)\n", kbd.Name, kbd.ID, emoji.Name, emoji.ID)

	// A fleet of phones checks in as they reach chargers.
	rng := stats.NewRNG(7)
	for i := 0; i < 60 && activeJobs(srv.URL) > 0; i++ {
		ci := server.CheckIn{
			DeviceID: fmt.Sprintf("phone-%03d", i),
			CPU:      rng.Float64(),
			Mem:      rng.Float64(),
		}
		// A lone device checks in as a batch of one.
		var resp server.CheckInBatchResponse
		post(srv.URL+"/v1/checkin/batch", server.CheckInBatchRequest{CheckIns: []server.CheckIn{ci}}, &resp)
		asg := resp.Results[0]
		if !asg.Assigned {
			continue
		}
		// The device runs its task and reports (always succeeds here).
		post(srv.URL+"/v1/report/batch", server.ReportBatchRequest{Reports: []server.Report{{
			DeviceID: ci.DeviceID, JobID: asg.JobID, OK: true,
			DurationSeconds: 30 + 60*rng.Float64(),
		}}}, &server.ReportBatchResponse{})
	}

	var st server.Metrics
	get(srv.URL+"/v1/metrics", &st)
	fmt.Printf("\n%d devices assigned, %d reports, %d jobs completed (avg JCT %.0fs)\n",
		st.Assignments, st.Reports, st.CompletedJobs, st.AvgJCTSeconds)
	for _, j := range jobs(srv.URL) {
		fmt.Printf("  job %d (%s): %s, %d/%d rounds\n", j.ID, j.Name, j.State, j.CompletedRounds, j.Rounds)
	}
	// Output:
	// registered: keyboard (#0), emoji (#1)
	//
	// 24 devices assigned, 22 reports, 2 jobs completed (avg JCT 0s)
	//   job 0 (keyboard): done, 2/2 rounds
	//   job 1 (emoji): done, 2/2 rounds
}

func registerJob(base string, spec server.JobSpec) server.JobStatus {
	var st server.JobStatus
	post(base+"/v1/jobs", spec, &st)
	return st
}

func jobs(base string) []server.JobStatus {
	var out []server.JobStatus
	get(base+"/v1/jobs", &out)
	return out
}

func activeJobs(base string) int {
	n := 0
	for _, j := range jobs(base) {
		if j.State != "done" {
			n++
		}
	}
	return n
}

func post(url string, body, out any) {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type driverOutput struct {
	Correct   *bool  `json:"correct"`
	Attempted *int64 `json:"attempted"`
	Failed    *int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func checkDriverLine(t *testing.T, line string, defs []metricDef) {
	t.Helper()
	var out driverOutput
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("driver line is not JSON: %v\n%s", err, line)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("driver line lacks correct/attempted/failed: %s", line)
	}
	if !*out.Correct || *out.Attempted < 1 || *out.Failed != 0 {
		t.Errorf("correct %v, attempted %d, failed %d", *out.Correct, *out.Attempted, *out.Failed)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%d metrics on the line, %d declared", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		if !ok || m.Value == nil {
			t.Errorf("metric %s is missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, declared %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload end to end at -smoke scale, traced, and
// checks that every declared metric comes out with its declared unit, that
// the operation counts are there, and that the run checks out as correct.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runWorkload(runOptions{w: w, seed: 1, sc: smokeScale(), trace: true, outDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, reason := range res.Reasons {
				t.Errorf("incorrect: %s", reason)
			}
			checkDriverLine(t, driverLine(res, false), endToEnd)
			checkDriverLine(t, driverLine(res, true), perLayer)
			for _, d := range endToEnd {
				if res.EndToEnd[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want above zero", d.name, res.EndToEnd[d.name])
				}
			}
			if st, err := os.Stat(filepath.Join(dir, w.name+".spans.jsonl")); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			if err := writeResultFile(dir, res); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(resultPath(dir, w.name))
			if err != nil {
				t.Fatal(err)
			}
			var file map[string]json.RawMessage
			if err := json.Unmarshal(buf, &file); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"ops_attempted", "ops_failed", "end_to_end", "per_layer"} {
				if _, ok := file[key]; !ok {
					t.Errorf("result file lacks %s", key)
				}
			}
			back, err := readResultFile(dir, w.name)
			if err != nil || back.Attempted != res.Attempted || !back.correct() {
				t.Errorf("result file does not read back: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, the contract the driver
// reads, in step with the tables this package prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, here %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: %+v, here %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound does not match %v", kind, d.name, d.bound)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
}

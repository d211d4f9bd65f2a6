package eval

import (
	"strings"
	"testing"

	"venn/internal/job"
	"venn/internal/stats"
	"venn/internal/trace"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("Title", "A", "LongHeader")
	tb.AddRow("x", 1.2345)
	tb.AddRow("longercell", "v")
	tb.Caption = "cap"
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[1], "LongHeader") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator line = %q", lines[2])
	}
	if !strings.Contains(out, "1.23") {
		t.Error("floats must render with 2 decimals")
	}
	if lines[len(lines)-1] != "cap" {
		t.Errorf("caption line = %q", lines[len(lines)-1])
	}
	// All data rows should be at least as wide as the header's columns.
	if len(lines[3]) < len("longercell") {
		t.Error("row width too small")
	}
}

func TestFormatSpeedup(t *testing.T) {
	if got := FormatSpeedup(1.875); got != "1.88x" {
		t.Errorf("FormatSpeedup = %q", got)
	}
}

// jobTraceSummary summarizes a synthetic demand trace (Figure 8b).
func jobTraceSummary(n int, seed int64) (rounds, demand stats.Summary) {
	specs := trace.DefaultJobTraceModel().Generate(n, stats.NewRNG(seed))
	rs := make([]float64, n)
	ds := make([]float64, n)
	for i, s := range specs {
		rs[i] = float64(s.Rounds)
		ds[i] = float64(s.DemandPerRound)
	}
	return stats.Summarize(rs), stats.Summarize(ds)
}

func TestJobTraceSummaryRanges(t *testing.T) {
	rounds, demand := jobTraceSummary(500, 3)
	if rounds.Min < 10 || rounds.Max > 4000 {
		t.Errorf("rounds out of Fig 8b range: %v", rounds)
	}
	if demand.Min < 10 || demand.Max > 1500 {
		t.Errorf("demand out of Fig 8b range: %v", demand)
	}
	if rounds.Mean <= rounds.Min || rounds.Mean >= rounds.Max {
		t.Error("mean must be interior")
	}
}

func TestSpeedupOverSubsetEdges(t *testing.T) {
	setup := NewSetup(ScaleQuick, 31)
	cmp, err := Compare(setup, pick(StandardSchedulers(), "Random", "Venn"))
	if err != nil {
		t.Fatal(err)
	}
	venn, random := cmp.Results["Venn"], cmp.Results["Random"]
	// Empty subset yields 0.
	if sp := SpeedupOverSubset(venn, random, func(j *job.Job) bool { return false }); sp != 0 {
		t.Errorf("empty subset speedup = %v", sp)
	}
	// Full subset equals SpeedupOver.
	full := SpeedupOverSubset(venn, random, func(j *job.Job) bool { return true })
	if want := venn.SpeedupOver(random); full != want {
		t.Errorf("full-subset %v != SpeedupOver %v", full, want)
	}
}

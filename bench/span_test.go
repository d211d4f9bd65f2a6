package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"venn/internal/stats"
)

// Self time is the span's duration minus the part its children cover.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "frame", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 25, end: 60, parent: 0},  // overlaps a: 25..30 counts once
		{name: "c", start: 90, end: 120, parent: 0}, // runs past the parent: clipped at 100
		{name: "a.inner", start: 12, end: 20, parent: 1},
	}
	want := []int64{
		100 - (20 + 30 + 10), // a covers 10..30, b adds 30..60, c adds 90..100
		20 - 8,
		35,
		30,
		8,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestPerFrameSelfSumsRepeatedSpans(t *testing.T) {
	spans := []span{
		{name: "frame", start: 0, end: 50, parent: -1, frame: 0},
		{name: "x", start: 0, end: 10, parent: 0, frame: 0},
		{name: "x", start: 20, end: 25, parent: 0, frame: 0}, // same name, same frame: summed
		{name: "frame", start: 50, end: 90, parent: -1, frame: 1},
		{name: "x", start: 50, end: 57, parent: 3, frame: 1},
	}
	per := perFrameSelf(spans)
	if got := stats.Median(per["x"]); got != 11 { // frames give 15 and 7
		t.Errorf("median per-frame self time of x = %v, want 11", got)
	}
	if got := stats.Median(per["frame"]); got != 34 { // 35 and 33
		t.Errorf("median per-frame self time of frame = %v, want 34", got)
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	rec := newSpanRecorder(4)
	root := rec.begin("frame", 7)
	child := rec.begin("leaf", 7)
	rec.end(child)
	rec.end(root)
	if rec.spans[child].parent != root || rec.spans[root].parent != -1 {
		t.Fatalf("parents = %d, %d", rec.spans[child].parent, rec.spans[root].parent)
	}
	if rec.spans[child].start < rec.spans[root].start || rec.spans[child].end > rec.spans[root].end {
		t.Error("child is not inside its parent")
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], `{"name":"leaf","start_ns":`) || !strings.HasSuffix(lines[1], `,"parent":0,"frame":7}`) {
		t.Errorf("span file:\n%s", buf)
	}
}

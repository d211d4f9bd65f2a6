package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"time"
)

// span is one timed call into a layer, recorded by the bench around the call
// (the daemon's own spans are a separate, sampled signal). parent is the
// index of the enclosing span in the recorder, or -1 at the root; frame is
// the index of the 64-check-in frame the call served.
type span struct {
	name   string
	start  int64 // ns since the recorder was created
	end    int64
	parent int32
	frame  int32
}

// spanRecorder keeps spans in memory; nothing is written until the run ends.
// It is used from one goroutine (the walk is synchronous).
type spanRecorder struct {
	t0    time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
}

func newSpanRecorder(capacity int) *spanRecorder {
	return &spanRecorder{t0: time.Now(), spans: make([]span, 0, capacity), open: -1}
}

// begin opens a span under the innermost open one and returns its index.
func (r *spanRecorder) begin(name string, frame int) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: r.open, frame: int32(frame)})
	r.open = id
	r.spans[id].start = int64(time.Since(r.t0))
	return id
}

// end closes span id, which must be the innermost open one.
func (r *spanRecorder) end(id int32) {
	r.spans[id].end = int64(time.Since(r.t0))
	r.open = r.spans[id].parent
}

// timed records f as one span.
func (r *spanRecorder) timed(name string, frame int, f func()) {
	id := r.begin(name, frame)
	f()
	r.end(id)
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover. Children that overlap each other are counted
// once, and a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, upTo := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, upTo), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// perFrameSelf sums self time per (name, frame) and returns, per name, the
// per-frame sums of the frames the name occurs in.
func perFrameSelf(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	type key struct {
		name  string
		frame int32
	}
	sums := make(map[key]int64)
	for i, s := range spans {
		sums[key{s.name, s.frame}] += self[i]
	}
	out := make(map[string][]float64)
	for k, v := range sums {
		out[k.name] = append(out[k.name], float64(v))
	}
	return out
}

// writeSpans writes one JSON object per line: name, start_ns, end_ns, parent
// (line index, -1 at the root) and frame.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range spans {
		line = append(line[:0], `{"name":"`...)
		line = append(line, s.name...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"frame":`...)
		line = strconv.AppendInt(line, int64(s.frame), 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

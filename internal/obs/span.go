package obs

import (
	"sync/atomic"
	"time"
)

// Stage labels one timed segment of a request's path through the daemon.
type Stage uint8

const (
	StageRead      Stage = iota // frame payload read off the socket
	StageDecode                 // wire payload decode into the typed request
	StageQueueWait              // wait for the core mutex (core_wait, per request)
	StageApply                  // scheduler-core apply under the commit path
	StageHop                    // federation forward round-trip (origin side)
	StageEncode                 // response payload encode
	StageWrite                  // the flush that carried the response
	NumStages
)

var stageNames = [NumStages]string{"read", "decode", "queue_wait", "apply", "hop", "encode", "write"}

func (st Stage) String() string {
	if st < NumStages {
		return stageNames[st]
	}
	return "unknown"
}

// Op labels the request kind a histogram or span tracks. The names line up
// with the server's route labels so the JSON and Prometheus views agree.
type Op uint8

const (
	OpCheckInBatch Op = iota
	OpReportBatch
	OpJobs
	OpOther
	NumOps
)

var opNames = [NumOps]string{"checkin_batch", "report_batch", "jobs", "other"}

func (op Op) String() string {
	if op < NumOps {
		return opNames[op]
	}
	return "unknown"
}

// DefaultSampleEvery is the default span sampling rate: 1 in N served
// requests carries a full per-stage span (and a flight-recorder entry).
const DefaultSampleEvery = 64

// Registry owns every histogram, the sampler, and the flight recorder for
// one daemon. All methods are safe for concurrent use.
type Registry struct {
	sampleEvery uint64 // 0 = per-stage sampling off
	tick        atomic.Uint64
	seed        uint64
	seq         atomic.Uint64
	total       [NumOps]Hist
	stage       [NumOps][NumStages]Hist
	flight      Flight
}

// NewRegistry builds a registry sampling 1 in sampleEvery requests. 0
// selects DefaultSampleEvery; a negative value disables spans, trace
// propagation, and the flight recorder entirely (the always-on per-op total
// histograms keep recording — they are the cheap path).
func NewRegistry(sampleEvery int) *Registry {
	r := &Registry{}
	switch {
	case sampleEvery == 0:
		r.sampleEvery = DefaultSampleEvery
	case sampleEvery > 0:
		r.sampleEvery = uint64(sampleEvery)
	}
	r.seed = uint64(time.Now().UnixNano())*0x9e3779b97f4a7c15 | 1
	return r
}

// SampleEvery reports the active sampling rate, 0 when sampling is off.
func (r *Registry) SampleEvery() int { return int(r.sampleEvery) }

// Flight is the registry's flight recorder.
func (r *Registry) Flight() *Flight { return &r.flight }

// ObserveTotal records one request's end-to-end handler latency — the
// always-on path, independent of sampling.
func (r *Registry) ObserveTotal(op Op, d time.Duration) {
	if r == nil {
		return
	}
	r.total[op].Observe(int64(d))
}

// TotalSnapshot copies op's always-on end-to-end histogram.
func (r *Registry) TotalSnapshot(op Op) HistSnapshot { return r.total[op].Snapshot() }

// StageSnapshot copies op's sampled histogram for one stage.
func (r *Registry) StageSnapshot(op Op, st Stage) HistSnapshot { return r.stage[op][st].Snapshot() }

// newTraceID derives a unique well-mixed trace ID (splitmix64 over a
// process-random seed and a sequence counter); never 0, which is the wire's
// "no trace" value.
func (r *Registry) newTraceID() uint64 {
	z := r.seed + r.seq.Add(1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Sample starts a span for 1 in SampleEvery requests and returns nil for
// the rest (a nil *Span is valid everywhere). The unsampled cost is one
// atomic add.
func (r *Registry) Sample(op Op) *Span {
	if r == nil {
		return nil
	}
	n := r.sampleEvery
	if n == 0 || r.tick.Add(1)%n != 0 {
		return nil
	}
	return &Span{reg: r, op: op, traceID: r.newTraceID(), start: time.Now()}
}

// StartTraced starts a forced span carrying a remote trace ID — the
// receiving side of a federation hop whose origin sampled the request. The
// hop inherits the origin's sampling decision so both daemons record the
// same trace; nil when sampling is disabled locally.
func (r *Registry) StartTraced(op Op, traceID uint64) *Span {
	if r == nil || r.sampleEvery == 0 || traceID == 0 {
		return nil
	}
	return &Span{reg: r, op: op, traceID: traceID, hop: true, start: time.Now()}
}

// Span is one sampled request's stage record. Mark may be called from any
// goroutine (batch forwards fan out); durations for one stage accumulate.
// Every method is safe on a nil receiver.
type Span struct {
	reg     *Registry
	op      Op
	traceID uint64
	hop     bool // serving the remote side of a federation hop
	start   time.Time
	stages  [NumStages]atomic.Int64
	err     atomic.Bool
	fwd     atomic.Bool
	done    atomic.Bool
}

// Mark attributes d to stage st.
func (s *Span) Mark(st Stage, d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.stages[st].Add(int64(d))
}

// TraceID is the span's wire trace ID, 0 for a nil (unsampled) span.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SetError flags the request as failed.
func (s *Span) SetError() {
	if s != nil {
		s.err.Store(true)
	}
}

// SetForwarded flags that at least part of the request crossed a
// federation hop.
func (s *Span) SetForwarded() {
	if s != nil {
		s.fwd.Store(true)
	}
}

// Finish seals the span: stage durations land in the registry's sampled
// histograms and the request joins the flight recorder. Idempotent.
func (s *Span) Finish() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	rec := Record{
		TraceID:       s.traceID,
		Op:            s.op.String(),
		Hop:           s.hop,
		Error:         s.err.Load(),
		Forwarded:     s.fwd.Load(),
		StartUnixNano: s.start.UnixNano(),
		TotalNs:       int64(time.Since(s.start)),
	}
	for st := Stage(0); st < NumStages; st++ {
		ns := s.stages[st].Load()
		if ns > 0 {
			s.reg.stage[s.op][st].Observe(ns)
			rec.StageNs[st] = ns
		}
	}
	s.reg.flight.record(rec)
}

// The transport-neutral service layer. Service holds every piece of
// request-handling logic the daemon exposes — batch check-in and report, job
// registration and lookup, metrics — operating purely
// on the wire structs and returning typed errors. Transport adapters (the
// HTTP handler in http.go, the framed stream server in internal/transport)
// reduce to decode → Service call → encode: they own bytes and status
// codes, never scheduling or manager logic. The package compiles the
// service without net/http; the split is what lets one scheduler core be
// served over multiple transports and, later, daemon-to-daemon federation.
package server

import (
	"errors"
	"fmt"

	"venn/internal/obs"
)

// Transport labels name the transport a Service serves (see NewService).
const (
	TransportHTTP   = "http"
	TransportStream = "stream"
)

// Code classifies a service-layer failure so each transport adapter can map
// it to its native status space (HTTP statuses, stream error frames)
// without inspecting error strings.
//
// The numeric values are part of the wire protocol: they ride verbatim in
// stream OpError frames and in HTTP error bodies (the `code` field), and a
// client classifies failures by them alone. They are frozen — never renumber or reuse a value; add new codes
// at the end. codes_test.go pins them.
type Code int

const (
	// CodeInvalid is a malformed or unacceptable request.
	CodeInvalid Code = 1
	// CodeNotFound is a lookup of a resource that does not exist.
	CodeNotFound Code = 2
	// 3 was a single check-in for a device that already holds a task. A
	// busy device is now a per-item error of a batch (ErrDeviceBusy's
	// message), and the value stays reserved.

	// CodeTooLarge is a payload over the transport's configured bound.
	CodeTooLarge Code = 4
	// CodeUnavailable is a request that could not be served right now and
	// should be retried — e.g. a federation forward whose outcome is
	// unknown (timeout mid-flight), where neither answering nor silently
	// applying locally would be honest.
	CodeUnavailable Code = 5
)

// Error is the service layer's typed error: a Code for the adapter plus the
// underlying cause for the wire message and errors.Is chains.
type Error struct {
	Code Code
	Err  error
}

func (e *Error) Error() string { return e.Err.Error() }

// Unwrap exposes the cause so errors.Is keeps working through the service
// layer.
func (e *Error) Unwrap() error { return e.Err }

// ErrCode extracts the service code from an error chain; errors that did
// not come from the service layer classify as CodeInvalid.
func ErrCode(err error) Code {
	var se *Error
	if errors.As(err, &se) {
		return se.Code
	}
	return CodeInvalid
}

func svcErr(code Code, err error) error { return &Error{Code: code, Err: err} }

// Router intercepts the two serving-path entry points when a federation
// layer is attached to the Manager (SetRouter). The router owns the
// ownership decision: it applies locally-owned requests to the Manager
// directly and forwards the rest to the owning peer daemon, returning the
// merged result. Implemented by internal/cluster; the interface lives here
// so the server package never imports the federation (or client) packages.
//
// A failure, a peer's rejection included, is reported per item in its
// result's Error. Every entry point carries the request's observability span (nil when
// unsampled): the router attributes forward round-trips to its hop stage
// and propagates its trace ID across the wire.
type Router interface {
	// The batch entry points serve b's batch out of b, results included
	// (see BatchBuf); raw is its still-encoded form, zero for HTTP ingress.
	// The bool reports whether any item was forwarded to a peer: the
	// transport reflects it on the response opcode (the `forwarded` flag),
	// which tells a ring-aware client its topology is stale.
	CheckInBatchBuf(b *BatchBuf, raw RawItems, sp *obs.Span) ([]CheckInResult, bool)
	ReportBatchBuf(b *BatchBuf, raw RawItems, sp *obs.Span) ([]ReportResult, bool)
	// ForwardedIn records receipt of one peer-forwarded request frame of
	// the given payload size, so the receiving node's metrics count
	// forwards_in and forward_bytes_in without the transport layer knowing
	// any federation internals.
	ForwardedIn(bytes int)
	// Topology and ClusterTelemetry are read without the core mutex and must
	// not call back into the Manager: the topology served over OpTopology,
	// and the federation's part of /v1/metrics and Health.
	Topology() TopologyInfo
	ClusterTelemetry() ClusterTelemetry
}

// RawItems carries the still-encoded form of a v2 batch alongside its
// decoded items: Data is the request payload and item i occupies
// Data[Bounds[i]:Bounds[i+1]] (Bounds has len(items)+1 entries). The router
// splices those byte ranges directly into outgoing forward frames — the v2
// fixed layout makes the boundaries known at decode time, so misrouted items
// are relayed without a decode→re-encode round trip. Data is only valid for
// the duration of the call: the transport recycles the buffer when the
// handler returns, so implementations must copy any ranges they keep.
type RawItems struct {
	Data   []byte
	Bounds []uint32
}

// Service is the transport-neutral serving core. Each transport adapter
// creates its own; all instances share the same Manager, so state and
// cumulative counters are transport-agnostic.
type Service struct {
	m *Manager
}

// NewService creates the serving facade for one transport. The transport
// label (TransportHTTP or TransportStream) is unused; the benchmark's layer
// walk compiles against this signature.
func NewService(m *Manager, transport string) *Service {
	return &Service{m: m}
}

// Obs exposes the manager's observability registry. Transport adapters
// sample request spans from it and feed the always-on per-op total
// histograms; the histograms are shared across transports — they measure
// service time, which is transport-independent.
func (s *Service) Obs() *obs.Registry { return s.m.obs }

// RegisterJob admits a new CL job.
func (s *Service) RegisterJob(spec JobSpec) (JobStatus, error) {
	st, err := s.m.RegisterJob(spec)
	if err != nil {
		return JobStatus{}, svcErr(CodeInvalid, err)
	}
	return st, nil
}

// Jobs lists all jobs, active first.
func (s *Service) Jobs() []JobStatus { return s.m.Jobs() }

// JobStatusByID looks up one job.
func (s *Service) JobStatusByID(id int) (JobStatus, error) {
	st, err := s.m.JobStatusByID(id)
	if err != nil {
		return JobStatus{}, svcErr(CodeNotFound, err)
	}
	return st, nil
}

// CheckInBatchLocal applies the batch to this node's manager, bypassing any
// federation router, over a fresh BatchBuf whose results
// the caller keeps. The serving paths do not use it; the benchmark's layer
// walk compiles against it.
func (s *Service) CheckInBatchLocal(req CheckInBatchRequest, sp *obs.Span) (CheckInBatchResponse, error) {
	results, _, err := s.CheckInBatchBuf(&BatchBuf{CheckIns: req.CheckIns}, RawItems{}, true, sp)
	return CheckInBatchResponse{Results: results}, err
}

// CheckInBatchBuf processes b.CheckIns out of b's storage; Results[i]
// answers CheckIns[i], with a per-item rejection in its Error. Unless local is
// set, an attached router serves each item on its owner; the bool reports
// whether any item took a hop. raw is optional (RawItems). Transport adapters
// set local for a batch that arrived with the forwarded (hop) mark — the hop
// guard that keeps a stale peer ring from bouncing a request back and forth.
func (s *Service) CheckInBatchBuf(b *BatchBuf, raw RawItems, local bool, sp *obs.Span) ([]CheckInResult, bool, error) {
	if len(b.CheckIns) > MaxBatch {
		return nil, false, svcErr(CodeInvalid, fmt.Errorf("server: batch exceeds %d items", MaxBatch))
	}
	var results []CheckInResult
	forwarded := false
	if r := s.m.router(); r == nil || local {
		results = s.m.CheckInBatchBuf(b, sp)
	} else {
		results, forwarded = r.CheckInBatchBuf(b, raw, sp)
	}
	return results, forwarded, nil
}

// ReportBatchLocal is CheckInBatchLocal for reports.
func (s *Service) ReportBatchLocal(req ReportBatchRequest, sp *obs.Span) (ReportBatchResponse, error) {
	results, _, err := s.ReportBatchBuf(&BatchBuf{Reports: req.Reports}, RawItems{}, true, sp)
	return ReportBatchResponse{Results: results}, err
}

// ReportBatchBuf is CheckInBatchBuf for the reports in b.Reports.
func (s *Service) ReportBatchBuf(b *BatchBuf, raw RawItems, local bool, sp *obs.Span) ([]ReportResult, bool, error) {
	if len(b.Reports) > MaxBatch {
		return nil, false, svcErr(CodeInvalid, fmt.Errorf("server: batch exceeds %d items", MaxBatch))
	}
	var results []ReportResult
	forwarded := false
	if r := s.m.router(); r == nil || local {
		results = s.m.ReportBatchBuf(b, sp)
	} else {
		results, forwarded = r.ReportBatchBuf(b, raw, sp)
	}
	return results, forwarded, nil
}

// NoteForwardedIn records receipt of one peer-forwarded request frame of
// the given payload size with the attached federation router's counters; a
// no-op without one.
func (s *Service) NoteForwardedIn(bytes int) {
	if r := s.m.router(); r != nil {
		r.ForwardedIn(bytes)
	}
}

// Metrics returns the serving-telemetry snapshot.
func (s *Service) Metrics() Metrics { return s.m.MetricsSnapshot() }

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"venn/internal/obs"
)

// This file is the HTTP adapter over the transport-neutral Service
// (service.go): every handler is decode → service call → encode, plus the
// HTTP-specific concerns (method dispatch, status mapping, body bounds,
// observability middleware). No scheduling or manager logic lives here; the
// same Service is served by the framed stream transport in internal/transport.

// HandlerConfig bounds the HTTP adapter. The zero value takes the defaults.
type HandlerConfig struct {
	// MaxBatchBodyBytes caps batch request bodies (default MaxBatch KiB,
	// ~1KB of headroom per allowed item).
	MaxBatchBodyBytes int64
}

const (
	// defaultMaxBodyBytes caps every other request body (a JobSpec): a
	// malformed giant payload is rejected with 413 before it can balloon
	// memory.
	defaultMaxBodyBytes      = 1 << 20
	defaultMaxBatchBodyBytes = MaxBatch * 1024
)

func (c *HandlerConfig) fillDefaults() {
	if c.MaxBatchBodyBytes <= 0 {
		c.MaxBatchBodyBytes = defaultMaxBatchBodyBytes
	}
}

// Handler wraps a Manager with the HTTP/JSON API under default bounds:
//
//	POST /v1/jobs            {JobSpec}              -> JobStatus
//	GET  /v1/jobs            -> []JobStatus
//	GET  /v1/jobs/{id}       -> JobStatus
//	POST /v1/checkin/batch   {CheckInBatchRequest}  -> CheckInBatchResponse
//	POST /v1/report/batch    {ReportBatchRequest}   -> ReportBatchResponse
//	GET  /v1/metrics         -> Metrics (JSON)
//	GET  /v1/healthz         -> HealthStatus (503 when unhealthy)
//	GET  /v1/debug/flight    -> flight-recorder dump, slowest first
//	GET  /metrics            -> Prometheus text-format exposition
//
// Every route runs under the observability middleware: end-to-end latency
// feeds the always-on per-op histograms (handler_latency_ms of /v1/metrics),
// and 1-in-ObsSampleEvery requests carry a per-stage span that lands in
// request_stage_ns and the flight recorder.
func Handler(m *Manager) http.Handler { return NewHandler(m, HandlerConfig{}) }

// NewHandler is Handler with an explicit batch body bound.
func NewHandler(m *Manager, cfg HandlerConfig) http.Handler {
	cfg.fillDefaults()
	svc := NewService(m, TransportHTTP)
	mux := http.NewServeMux()
	handle := func(pattern string, op obs.Op, h func(http.ResponseWriter, *http.Request, *obs.Span)) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			sp := m.obs.Sample(op)
			h(w, r, sp)
			m.obs.ObserveTotal(op, time.Since(t0))
			sp.Finish()
		})
	}
	handle("/v1/jobs", obs.OpJobs, func(w http.ResponseWriter, r *http.Request, sp *obs.Span) {
		switch r.Method {
		case http.MethodPost:
			var spec JobSpec
			if !decodeTimed(w, r, defaultMaxBodyBytes, &spec, sp) {
				return
			}
			st, err := svc.RegisterJob(spec)
			if err != nil {
				sp.SetError()
				writeErr(w, err)
				return
			}
			writeJSONSpan(w, st, http.StatusCreated, sp)
		case http.MethodGet:
			writeJSONSpan(w, svc.Jobs(), http.StatusOK, sp)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	handle("/v1/jobs/", obs.OpJobs, func(w http.ResponseWriter, r *http.Request, sp *obs.Span) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		idStr := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		id, err := strconv.Atoi(idStr)
		if err != nil {
			sp.SetError()
			writeErr(w, svcErr(CodeInvalid, errors.New("bad job id")))
			return
		}
		st, err := svc.JobStatusByID(id)
		if err != nil {
			sp.SetError()
			writeErr(w, err)
			return
		}
		writeJSONSpan(w, st, http.StatusOK, sp)
	})
	handle("/v1/checkin/batch", obs.OpCheckInBatch, func(w http.ResponseWriter, r *http.Request, sp *obs.Span) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		b := getBatchBuf()
		defer putBatchBuf(b)
		req := CheckInBatchRequest{CheckIns: b.CheckIns[:0]}
		if !decodeTimed(w, r, cfg.MaxBatchBodyBytes, &req, sp) {
			return
		}
		b.CheckIns = req.CheckIns
		results, _, err := svc.CheckInBatchBuf(b, RawItems{}, false, sp)
		if err != nil {
			sp.SetError()
			writeErr(w, err)
			return
		}
		writeJSONSpan(w, CheckInBatchResponse{Results: results}, http.StatusOK, sp)
	})
	handle("/v1/report/batch", obs.OpReportBatch, func(w http.ResponseWriter, r *http.Request, sp *obs.Span) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		b := getBatchBuf()
		defer putBatchBuf(b)
		req := ReportBatchRequest{Reports: b.Reports[:0]}
		if !decodeTimed(w, r, cfg.MaxBatchBodyBytes, &req, sp) {
			return
		}
		b.Reports = req.Reports
		results, _, err := svc.ReportBatchBuf(b, RawItems{}, false, sp)
		if err != nil {
			sp.SetError()
			writeErr(w, err)
			return
		}
		writeJSONSpan(w, ReportBatchResponse{Results: results}, http.StatusOK, sp)
	})
	handle("/v1/metrics", obs.OpOther, func(w http.ResponseWriter, r *http.Request, sp *obs.Span) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSONSpan(w, svc.Metrics(), http.StatusOK, sp)
	})
	handle("/v1/healthz", obs.OpOther, func(w http.ResponseWriter, r *http.Request, sp *obs.Span) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h := m.Health()
		code := http.StatusOK
		if !h.OK {
			code = http.StatusServiceUnavailable
		}
		writeJSONSpan(w, h, code, sp)
	})
	handle("/v1/debug/flight", obs.OpOther, func(w http.ResponseWriter, r *http.Request, sp *obs.Span) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		dump := struct {
			SampleEvery int          `json:"sample_every"`
			Recorded    int64        `json:"recorded_total"`
			Records     []obs.Record `json:"records"`
		}{m.obs.SampleEvery(), m.obs.Flight().Recorded(), m.obs.Flight().Snapshot()}
		writeJSONSpan(w, dump, http.StatusOK, sp)
	})
	handle("/metrics", obs.OpOther, func(w http.ResponseWriter, r *http.Request, sp *obs.Span) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var b strings.Builder
		WritePrometheus(&b, m)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(b.Len()))
		_, _ = io.WriteString(w, b.String())
	})
	return mux
}

// Serve runs the HTTP API plus the deadline ticker until the listener fails
// or ctx is canceled; cancellation drains in-flight requests (up to
// shutdownGrace) before returning, so a SIGTERM never drops accepted work.
// A clean drain returns nil. cfg's zero value takes the default batch body
// bound.
func Serve(ctx context.Context, addr string, m *Manager, cfg HandlerConfig) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.Tick()
			case <-stop:
				return
			}
		}
	}()
	srv := &http.Server{Addr: addr, Handler: NewHandler(m, cfg), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}

// shutdownGrace bounds how long a canceled Serve (or stream Shutdown) waits
// for in-flight requests to complete.
const shutdownGrace = 10 * time.Second

// bodyPool recycles request-body read buffers across the hot endpoints.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decode parses the request body into v, first bounding it to limit bytes
// (an over-limit body answers 413 without being buffered past the limit).
// Types with a hand-rolled UnmarshalJSON (the hot wire types, see codec.go)
// are fed the raw bytes directly — a json.Decoder would tokenize the value
// once just to find its extent and then have the custom unmarshaler parse
// it again. Everything else takes the reflective decoder with the original
// unknown-field strictness, which the custom codecs replicate.
func decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if u, ok := v.(json.Unmarshaler); ok {
		buf := bodyPool.Get().(*bytes.Buffer)
		buf.Reset()
		defer bodyPool.Put(buf)
		if _, err := buf.ReadFrom(r.Body); err != nil {
			writeErr(w, bodyErr(err))
			return false
		}
		if err := u.UnmarshalJSON(buf.Bytes()); err != nil {
			writeErr(w, svcErr(CodeInvalid, err))
			return false
		}
		return true
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, bodyErr(err))
		return false
	}
	return true
}

// decodeTimed is decode with the span's decode-stage mark. HTTP has no
// separate frame-read stage: the body read and the parse both land in
// decode. The clock reads are span-gated — the unsampled path pays nothing.
func decodeTimed(w http.ResponseWriter, r *http.Request, limit int64, v any, sp *obs.Span) bool {
	if sp == nil {
		return decode(w, r, limit, v)
	}
	t0 := time.Now()
	ok := decode(w, r, limit, v)
	sp.Mark(obs.StageDecode, time.Since(t0))
	if !ok {
		sp.SetError()
	}
	return ok
}

// bodyErr classifies a body-read failure: the MaxBytesReader limit maps to
// CodeTooLarge, everything else is a plain bad request.
func bodyErr(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return svcErr(CodeTooLarge, err)
	}
	return svcErr(CodeInvalid, err)
}

// httpStatus maps service error codes to HTTP statuses. Busy and
// unavailable never reach it: they are per-item errors of a batch.
func httpStatus(code Code) int {
	switch code {
	case CodeNotFound:
		return http.StatusNotFound
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any, code int) { writeJSONSpan(w, v, code, nil) }

// writeJSONSpan renders v, attributing the marshal to the span's encode
// stage and the response write to its write stage (clock reads span-gated).
func writeJSONSpan(w http.ResponseWriter, v any, code int, sp *obs.Span) {
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	var buf []byte
	var err error
	// The hot wire types marshal themselves; calling them directly skips
	// encoding/json's re-validation pass over their output.
	if jm, ok := v.(json.Marshaler); ok {
		buf, err = jm.MarshalJSON()
	} else {
		buf, err = json.Marshal(v)
	}
	if err != nil {
		sp.SetError()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if sp != nil {
		sp.Mark(obs.StageEncode, time.Since(t0))
		t0 = time.Now()
	}
	w.Header().Set("Content-Type", "application/json")
	// Explicit Content-Length keeps large batch replies out of chunked
	// framing.
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(code)
	_, _ = w.Write(buf)
	if sp != nil {
		sp.Mark(obs.StageWrite, time.Since(t0))
	}
}

// writeErr renders a service failure. The numeric `code` field carries the
// stable server.Code value so SDK clients classify failures without
// matching on the message or the HTTP status.
func writeErr(w http.ResponseWriter, err error) {
	body := struct {
		Error string `json:"error"`
		Code  int    `json:"code"`
	}{Error: err.Error(), Code: int(ErrCode(err))}
	writeJSON(w, body, httpStatus(ErrCode(err)))
}

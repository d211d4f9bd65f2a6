package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
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
			if !decode(w, r, defaultMaxBodyBytes, &spec, sp) {
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
		if !decodeBatch(w, r, cfg.MaxBatchBodyBytes, b, (*BatchBuf).decodeCheckInsJSON, sp) {
			return
		}
		results, _, err := svc.CheckInBatchBuf(b, RawItems{}, false, sp)
		if err != nil {
			sp.SetError()
			writeErr(w, err)
			return
		}
		t0 := spanClock(sp)
		b.reply = CheckInBatchResponse{Results: results}.appendJSON(b.reply[:0])
		writeBody(w, b.reply, b.replyLength(), http.StatusOK, sp, t0)
	})
	handle("/v1/report/batch", obs.OpReportBatch, func(w http.ResponseWriter, r *http.Request, sp *obs.Span) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		b := getBatchBuf()
		defer putBatchBuf(b)
		if !decodeBatch(w, r, cfg.MaxBatchBodyBytes, b, (*BatchBuf).decodeReportsJSON, sp) {
			return
		}
		results, _, err := svc.ReportBatchBuf(b, RawItems{}, false, sp)
		if err != nil {
			sp.SetError()
			writeErr(w, err)
			return
		}
		t0 := spanClock(sp)
		b.reply = ReportBatchResponse{Results: results}.appendJSON(b.reply[:0])
		writeBody(w, b.reply, b.replyLength(), http.StatusOK, sp, t0)
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

// decode parses a request body into v with the reflective decoder, unknown
// fields rejected, after bounding the body to limit bytes (an over-limit
// body answers 413 without being buffered past the limit).
func decode(w http.ResponseWriter, r *http.Request, limit int64, v any, sp *obs.Span) bool {
	t0 := spanClock(sp)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err != nil {
		err = bodyErr(err)
	}
	return decoded(w, err, sp, t0)
}

// decodeBatch reads a batch body, bounded to limit bytes, into b and parses
// it with parse, which leaves the device IDs views of the body: b must not
// be released before the reply is written (see BatchBuf).
func decodeBatch(w http.ResponseWriter, r *http.Request, limit int64, b *BatchBuf, parse func(*BatchBuf, []byte) error, sp *obs.Span) bool {
	t0 := spanClock(sp)
	b.body.Reset()
	_, err := b.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		err = bodyErr(err)
	} else if err = parse(b, b.body.Bytes()); err != nil {
		err = svcErr(CodeInvalid, err)
	}
	return decoded(w, err, sp, t0)
}

// decoded ends a request's decode stage, which on HTTP holds the body read
// and the parse both (there is no separate frame-read stage), and answers a
// failed one with its error.
func decoded(w http.ResponseWriter, err error, sp *obs.Span, t0 time.Time) bool {
	if sp != nil {
		sp.Mark(obs.StageDecode, time.Since(t0))
		if err != nil {
			sp.SetError()
		}
	}
	if err != nil {
		writeErr(w, err)
		return false
	}
	return true
}

// spanClock reads the clock for a stage mark only when sp is sampled: the
// unsampled path pays nothing.
func spanClock(sp *obs.Span) time.Time {
	if sp == nil {
		return time.Time{}
	}
	return time.Now()
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

// writeJSONSpan renders v with encoding/json.
func writeJSONSpan(w http.ResponseWriter, v any, code int, sp *obs.Span) {
	t0 := spanClock(sp)
	buf, err := json.Marshal(v)
	if err != nil {
		sp.SetError()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, buf, strconv.Itoa(len(buf)), code, sp, t0)
}

// writeBody writes an encoded JSON reply of length clen, attributing the
// time since t0 to the span's encode stage and the write to its write stage.
func writeBody(w http.ResponseWriter, buf []byte, clen string, code int, sp *obs.Span, t0 time.Time) {
	if sp != nil {
		sp.Mark(obs.StageEncode, time.Since(t0))
		t0 = time.Now()
	}
	w.Header().Set("Content-Type", "application/json")
	// Explicit Content-Length keeps large batch replies out of chunked
	// framing.
	w.Header().Set("Content-Length", clen)
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

package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"venn/internal/server"
	"venn/internal/transport"
)

// StreamClient talks to a venndaemon stream listener (venndaemon
// -stream-addr) over the persistent framed protocol of internal/transport.
// It exposes the same surface as the HTTP Client — CheckInBatch, ReportBatch,
// job registration and lookup, Metrics — but
// amortizes connection setup and HTTP framing away entirely: requests from
// any number of goroutines are multiplexed over a small pool of persistent
// connections, correlated by pipelined request IDs, and a connection that
// dies is redialed transparently on the next call.
//
// With WithTopology(true) the client is additionally *ring-aware*: it
// fetches the federation topology (OpTopology) from its seed daemon, builds
// the same consistent-hash ring the daemons use (internal/hashring), and
// partitions every call by device owner onto pooled per-member connections —
// so in a healthy cluster no request needs a server-side federation hop.
// See topo.go for the routing, staleness, and failover contract.
//
// All methods are safe for concurrent use.
type StreamClient struct {
	conns []*streamConn
	next  atomic.Uint64
	topo  *topoState // nil unless WithTopology(true)
}

// Stream defaults.
const (
	DefaultStreamConns      = 2
	defaultClientMaxPayload = 64 << 20 // responses can carry full batch + metrics payloads
)

// NewStream creates a stream client for the daemon's stream listener at
// addr (e.g. "localhost:8081"). Connections are dialed lazily on first use
// and redialed automatically after failures. New with a bare host:port
// selects the same transport but returns the API interface; NewStream stays
// because the federation relay needs the concrete *StreamClient for
// ForwardRaw.
func NewStream(addr string, opts ...Option) *StreamClient {
	cfg := defaultClientConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return newStreamClient(addr, cfg)
}

func newStreamClient(addr string, cfg config) *StreamClient {
	sc := &StreamClient{conns: make([]*streamConn, cfg.streamConns)}
	for i := range sc.conns {
		sc.conns[i] = &streamConn{addr: addr, timeout: cfg.timeout}
	}
	if cfg.topology {
		sc.topo = newTopoState(sc, addr, cfg)
	}
	return sc
}

// Close tears down every pooled connection (and, in topology mode, the
// per-member sub-clients); in-flight calls fail.
func (s *StreamClient) Close() error {
	if s.topo != nil {
		s.topo.close()
	}
	for _, c := range s.conns {
		c.close(errors.New("client: stream client closed"))
	}
	return nil
}

// Ping round-trips an empty frame — a cheap reachability and liveness
// probe.
func (s *StreamClient) Ping() error {
	_, err := s.do(transport.OpPing, encoded(nil), nil)
	return err
}

// encoded is the encoder of a payload built beforehand (nil for an empty one).
func encoded(buf []byte) reqEncoder {
	return func() ([]byte, error) { return buf, nil }
}

// CheckInBatch announces availability for a whole batch of devices in one
// frame. Results[i] answers cis[i]; per-item rejections surface in each
// result's Error field, not as a Go error.
func (s *StreamClient) CheckInBatch(cis []server.CheckIn) ([]server.CheckInResult, error) {
	if s.topo != nil {
		return s.topo.checkInBatch(cis)
	}
	res, _, err := s.checkInBatchOp(cis)
	return res, err
}

func (s *StreamClient) checkInBatchOp(cis []server.CheckIn) ([]server.CheckInResult, bool, error) {
	req := server.CheckInBatchRequest{CheckIns: cis}
	var resp server.CheckInBatchResponse
	fwd, err := s.do(transport.OpCheckInBatch, func() ([]byte, error) {
		return req.AppendBinary(transport.GetBuf(256))
	}, resp.UnmarshalBinary)
	if err != nil {
		return nil, fwd, err
	}
	if len(resp.Results) != len(cis) {
		return nil, fwd, fmt.Errorf("client: batch reply has %d results for %d check-ins", len(resp.Results), len(cis))
	}
	return resp.Results, fwd, nil
}

// ReportBatch submits a batch of task results in one frame. Results[i]
// answers rs[i].
func (s *StreamClient) ReportBatch(rs []server.Report) ([]server.ReportResult, error) {
	if s.topo != nil {
		return s.topo.reportBatch(rs)
	}
	res, _, err := s.reportBatchOp(rs)
	return res, err
}

func (s *StreamClient) reportBatchOp(rs []server.Report) ([]server.ReportResult, bool, error) {
	req := server.ReportBatchRequest{Reports: rs}
	var resp server.ReportBatchResponse
	fwd, err := s.do(transport.OpReportBatch, func() ([]byte, error) {
		return req.AppendBinary(transport.GetBuf(256))
	}, resp.UnmarshalBinary)
	if err != nil {
		return nil, fwd, err
	}
	if len(resp.Results) != len(rs) {
		return nil, fwd, fmt.Errorf("client: batch reply has %d results for %d reports", len(resp.Results), len(rs))
	}
	return resp.Results, fwd, nil
}

// RegisterJob submits a new CL job and returns its status (including ID).
func (s *StreamClient) RegisterJob(spec server.JobSpec) (server.JobStatus, error) {
	var st server.JobStatus
	err := s.doJSON(transport.OpRegisterJob, spec, &st)
	return st, err
}

// Jobs lists all jobs.
func (s *StreamClient) Jobs() ([]server.JobStatus, error) {
	var out []server.JobStatus
	err := s.doJSON(transport.OpJobs, nil, &out)
	return out, err
}

// JobStatus fetches one job's status.
func (s *StreamClient) JobStatus(id int) (server.JobStatus, error) {
	var st server.JobStatus
	err := s.doJSON(transport.OpJobStatus, transport.JobIDRequest{ID: id}, &st)
	return st, err
}

// Metrics fetches the daemon's serving-throughput and latency metrics.
func (s *StreamClient) Metrics() (server.Metrics, error) {
	var mt server.Metrics
	err := s.doJSON(transport.OpMetrics, nil, &mt)
	return mt, err
}

// WaitForJob polls until the job completes or the timeout elapses.
func (s *StreamClient) WaitForJob(id int, poll, timeout time.Duration) (server.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.JobStatus(id)
		if err != nil {
			return st, err
		}
		if st.State == "done" {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("client: job %d not done after %v", id, timeout)
		}
		time.Sleep(poll)
	}
}

// doJSON is do for the low-volume ops, whose payloads are JSON: reflective
// encode of in (nil for an empty payload), reflective decode into out.
func (s *StreamClient) doJSON(op byte, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	_, err := s.do(op, encoded(payload), func(buf []byte) error {
		if out == nil {
			return nil
		}
		return json.Unmarshal(buf, out)
	})
	return err
}

// reqEncoder builds a request payload. Ownership of the payload passes to the
// send path: once the frame is written (or the write fails) the buffer is
// recycled into the transport's frame pool, so encoders should build into
// transport.GetBuf and must not retain the slice.
type reqEncoder func() ([]byte, error)

// respDecoder decodes a success response's payload. The payload is a pooled
// buffer recycled when the decoder returns, so it must copy what it keeps
// (every codec does). A nil decoder ignores the payload.
type respDecoder func(payload []byte) error

// do sends one request frame over a pooled connection, waits for its
// response, and hands the response payload to dec. It reports whether the
// response carried the forwarded flag (HopFlag on a non-hop request's
// response: the daemon federation-hopped at least one item, i.e. a
// ring-aware caller's topology is stale), and the decoded error frame or
// dec's error.
func (s *StreamClient) do(op byte, enc reqEncoder, dec respDecoder) (bool, error) {
	return s.pick().do(op, 0, false, enc, dec)
}

// pick takes the pool's connections in turn.
func (s *StreamClient) pick() *streamConn {
	return s.conns[s.next.Add(1)%uint64(len(s.conns))]
}

// streamConn is one pooled connection: a lazily dialed socket, a reader
// goroutine that dispatches response frames to waiters by request ID, and
// a write path serialized by mu. gen guards against a stale teardown (a
// reader from a previous dial) clobbering a fresh connection.
type streamConn struct {
	addr    string
	timeout time.Duration

	mu      sync.Mutex
	c       net.Conn
	bw      *bufio.Writer
	pending map[uint32]chan streamResp
	nextID  uint32
	gen     uint64
}

// streamResp is what the read loop hands a waiting call: a response frame
// (payload in a pooled buffer, the receiver's to recycle) or the error that
// ended the connection.
type streamResp struct {
	op      byte
	payload []byte
	err     error
}

// waiter is what one call blocks on: the channel its response arrives on and
// the timer that bounds the wait. Calls draw them from waiterPool instead of
// making both per request. A waiter goes back to the pool only after its call
// received the one response registered for it: on any other exit (timeout,
// write failure) a late send may still be on its way, so the waiter is left
// to the garbage collector.
type waiter struct {
	ch    chan streamResp
	timer *time.Timer
}

var waiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan streamResp, 1), timer: t}
}}

// connectLocked dials under mu if needed and starts the reader for the new
// connection. Nothing is exchanged before the caller's request: the first
// frame on a connection is a request like any other.
func (sc *streamConn) connectLocked() error {
	if sc.c != nil {
		return nil
	}
	c, err := net.DialTimeout("tcp", sc.addr, sc.timeout)
	if err != nil {
		return &NotSentError{Err: fmt.Errorf("client: dial stream %s: %w", sc.addr, err)}
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	sc.c = c
	sc.bw = bufio.NewWriterSize(c, 64<<10)
	sc.pending = make(map[uint32]chan streamResp)
	sc.gen++
	go sc.readLoop(sc.gen, c, bufio.NewReaderSize(c, 64<<10))
	return nil
}

// readLoop dispatches response frames to their waiters until the
// connection dies, then fails every pending request so callers can retry
// (the next call redials).
func (sc *streamConn) readLoop(gen uint64, c net.Conn, br *bufio.Reader) {
	for {
		fr, err := transport.ReadFramePooled(br, defaultClientMaxPayload, transport.MaxVersion)
		if err != nil {
			sc.teardown(gen, fmt.Errorf("client: stream connection lost: %w", err))
			return
		}
		sc.mu.Lock()
		var ch chan streamResp
		if gen == sc.gen {
			ch = sc.pending[fr.ID]
			delete(sc.pending, fr.ID)
		}
		sc.mu.Unlock()
		if ch != nil {
			ch <- streamResp{op: fr.Op, payload: fr.Payload}
		} else {
			// A response nobody waits for (timed-out request) is dropped.
			transport.PutBuf(fr.Payload)
		}
	}
}

// teardown closes the socket of generation gen and fails its pending
// requests; a newer generation is left untouched.
func (sc *streamConn) teardown(gen uint64, err error) {
	sc.mu.Lock()
	if gen != sc.gen || sc.c == nil {
		sc.mu.Unlock()
		return
	}
	c := sc.c
	pending := sc.pending
	sc.c, sc.bw, sc.pending = nil, nil, nil
	sc.mu.Unlock()
	c.Close()
	for _, ch := range pending {
		ch <- streamResp{err: err}
	}
}

// close hard-closes the connection, failing pending requests with err.
func (sc *streamConn) close(err error) {
	sc.mu.Lock()
	gen := sc.gen
	sc.mu.Unlock()
	sc.teardown(gen, err)
}

// do is StreamClient.do on this connection. A nonzero trace (the forwarding
// daemon's sampled span ID, see ForwardRaw) is prepended to the payload and
// announced via TraceFlag on the opcode, so the receiving daemon records the
// hop under the same trace ID. lent marks a payload the encoder does not own
// (ForwardRaw): it is sent like any other and left alone after.
func (sc *streamConn) do(op byte, trace uint64, lent bool, enc reqEncoder, dec respDecoder) (bool, error) {
	w := waiterPool.Get().(*waiter)

	sc.mu.Lock()
	if err := sc.connectLocked(); err != nil {
		sc.mu.Unlock()
		waiterPool.Put(w) // never registered: no send can be on its way
		return false, err
	}
	// The payload is built under mu, after connect, so a failed dial encodes
	// nothing. The codecs are allocation-light appends; the write syscall
	// below dominates.
	payload, err := enc()
	if err != nil {
		sc.mu.Unlock()
		waiterPool.Put(w)
		return false, err
	}
	// TraceFlag rides only on the wire opcode: the server strips it before
	// building the response, so response matching below uses the bare op.
	wireOp := op
	if trace != 0 {
		payload = transport.PrependTrace(payload, trace, true)
		wireOp |= transport.TraceFlag
	}
	gen := sc.gen
	sc.nextID++
	id := sc.nextID
	sc.pending[id] = w.ch
	// Write under mu: frames from concurrent callers interleave whole, and
	// the shared buffered writer coalesces them. The write deadline keeps a
	// wedged peer from holding the lock forever.
	_ = sc.c.SetWriteDeadline(time.Now().Add(sc.timeout))
	err = transport.WriteFrame(sc.bw, transport.Version2, wireOp, id, payload)
	if err == nil {
		err = sc.bw.Flush()
	}
	sc.mu.Unlock()
	// The buffered writer has copied (or directly written) the payload by
	// now, success or not — recycle it per the reqEncoder contract.
	if !lent {
		transport.PutBuf(payload)
	}
	if err != nil {
		sc.teardown(gen, fmt.Errorf("client: stream write: %w", err))
		return false, &NotSentError{Err: fmt.Errorf("client: stream write: %w", err)}
	}

	w.timer.Reset(sc.timeout)
	select {
	case resp := <-w.ch:
		w.timer.Stop()
		waiterPool.Put(w)
		if resp.err != nil {
			return false, resp.err
		}
		defer transport.PutBuf(resp.payload)
		if resp.op == transport.OpError {
			return false, decodeStreamError(resp.payload)
		}
		// On a non-hop request, HopFlag on the response opcode is the
		// forwarded flag: the daemon federation-hopped at least one item.
		// (Hop requests echo the flag in op|RespFlag already.)
		forwarded := false
		if op&transport.HopFlag == 0 && resp.op == op|transport.RespFlag|transport.HopFlag {
			forwarded = true
		} else if resp.op != op|transport.RespFlag {
			return false, fmt.Errorf("client: stream response opcode %#x for request %#x", resp.op, op)
		}
		if dec == nil {
			return forwarded, nil
		}
		return forwarded, dec(resp.payload)
	case <-w.timer.C:
		sc.mu.Lock()
		if gen == sc.gen && sc.pending != nil {
			delete(sc.pending, id)
		}
		sc.mu.Unlock()
		return false, fmt.Errorf("client: stream request timed out after %v", sc.timeout)
	}
}

// decodeStreamError parses an OpError payload into the typed StreamError.
func decodeStreamError(payload []byte) error {
	var ep transport.ErrorPayload
	if ep.UnmarshalBinary(payload) == nil && ep.Error != "" {
		return &StreamError{Code: server.Code(ep.Code), Msg: ep.Error}
	}
	return errors.New("client: malformed stream error frame")
}

// StreamError is a typed server-side rejection carried over the stream
// transport; Code mirrors the service layer's error codes.
type StreamError struct {
	Code server.Code
	Msg  string
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("client: %s (stream code %d)", e.Msg, e.Code)
}

// NotSentError wraps a transport failure that happened before the request
// frame could have been processed by the daemon: the dial failed, or the
// frame's write/flush failed (a partially written frame is unparseable, so
// the server never dispatches it). Callers with side-effecting requests —
// the federation forwarder above all — may safely retry or re-apply
// elsewhere. Failures after a complete send (timeout waiting for the
// response, connection lost mid-flight) are NOT wrapped: their outcome is
// unknown and re-applying could double-apply.
type NotSentError struct{ Err error }

func (e *NotSentError) Error() string { return e.Err.Error() }
func (e *NotSentError) Unwrap() error { return e.Err }

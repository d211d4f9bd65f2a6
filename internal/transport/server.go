package transport

import (
	"bufio"
	"context"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"venn/internal/obs"
	"venn/internal/server"
)

// ErrServerClosed is returned by Serve after Shutdown or Close, mirroring
// http.ErrServerClosed.
var ErrServerClosed = errors.New("transport: server closed")

// Options parameterizes the stream server. The zero value takes defaults.
type Options struct {
	// MaxPayload bounds one frame's payload (default server.MaxBatch KiB,
	// matching the HTTP adapter's batch body bound). A frame announcing
	// more is a protocol violation and closes the connection.
	MaxPayload int
}

func (o *Options) fillDefaults() {
	if o.MaxPayload <= 0 {
		o.MaxPayload = server.MaxBatch * 1024
	}
}

// Server serves the scheduler's Service over framed TCP streams. Each
// connection is served by one goroutine, one frame at a time (serveConn):
// responses carry the request's ID and leave in request order, and a client
// that wants requests served in parallel opens more connections.
type Server struct {
	svc  *server.Service
	m    *server.Manager
	opts Options
	// writeTimeout is the writeTimeout constant; a field so that tests can
	// shorten it.
	writeTimeout time.Duration

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup // one entry per active connection

	connsActive atomic.Int64
	framesIn    atomic.Int64
	framesOut   atomic.Int64
}

// NewServer builds a stream server over m and attaches it to the manager
// (SetStreamServer): /v1/metrics reports its counters (stream_conns,
// stream_frames_*). Shutdown and Close detach it again.
func NewServer(m *server.Manager, opts Options) *Server {
	opts.fillDefaults()
	s := &Server{
		svc:          server.NewService(m, server.TransportStream),
		m:            m,
		opts:         opts,
		writeTimeout: writeTimeout,
		lns:          make(map[net.Listener]struct{}),
		conns:        make(map[*srvConn]struct{}),
	}
	m.SetStreamServer(s)
	return s
}

// StreamTelemetry implements server.StreamServer: the live stream counters,
// read from atomics only.
func (s *Server) StreamTelemetry() server.StreamTelemetry {
	return server.StreamTelemetry{
		StreamConns:     s.connsActive.Load(),
		StreamFramesIn:  s.framesIn.Load(),
		StreamFramesOut: s.framesOut.Load(),
	}
}

// Serve accepts connections on ln until the listener fails or the server is
// shut down (then it returns ErrServerClosed).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		sc := &srvConn{c: c, br: bufio.NewReaderSize(c, readBufSize)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsActive.Add(1)
		go s.serveConn(sc)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown closes the listeners, stops reading new frames on every
// connection, and waits for the frames already read to be answered and
// flushed.
// If ctx expires first, remaining connections are closed hard and ctx's
// error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	defer s.m.ClearStreamServer(s)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sc := range s.conns {
			sc.c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close shuts the server down without draining.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for sc := range s.conns {
		sc.c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.m.ClearStreamServer(s)
	return nil
}

// Connection tuning. These are constants, not options: no caller in the tree
// needs a second value.
const (
	// readBufSize is a connection's read buffer. Frames up to this size are
	// served in place; larger ones detour through the frame pool.
	readBufSize = 64 << 10
	// flushAt bounds the replies a pipelined burst may accumulate before a
	// write is forced, and the write buffer a connection keeps between bursts.
	flushAt = 64 << 10
	// writeTimeout bounds one write of replies. A peer that sends requests
	// and stops reading them fills its socket, then blocks the connection's
	// only goroutine in Write; past this bound the connection is dropped.
	writeTimeout = 5 * time.Second
)

// srvConn is one accepted connection. c never changes; its goroutine
// (serveConn) owns every other field exclusively, the socket's writes
// included.
type srvConn struct {
	c  net.Conn
	br *bufio.Reader
	// wbuf holds the replies encoded since the last flush, header and all;
	// pending counts them and spans lists the sampled ones, which finish when
	// the flush has put them on the wire.
	wbuf    []byte
	pending int
	spans   []*obs.Span
	// big is the pool buffer holding the current frame's payload when that
	// is too large for the read buffer; nil otherwise.
	big []byte
	// batch is the storage every batch frame of this connection is decoded
	// into and answered from; ciResp and repResp box its results for the
	// encoder without a per-frame allocation.
	batch   server.BatchBuf
	ciResp  server.CheckInBatchResponse
	repResp server.ReportBatchResponse
}

// beginDrain stops the connection's read loop at the next frame boundary by
// expiring its read deadline. Frames already in the read buffer are still
// served.
func (sc *srvConn) beginDrain() {
	_ = sc.c.SetReadDeadline(time.Unix(0, 1))
}

// next reads the connection's next frame. A payload that fits the read
// buffer is a view of it: nothing is copied, and the bytes are the frame's
// until release. wait is the time spent waiting for payload bytes after
// the header completed — 0 when they were already buffered, which is also
// when a clock read would cost more than the wait it times. The header wait
// is excluded: between requests it measures client idle time.
func (sc *srvConn) next(maxPayload int) (fr Frame, wait time.Duration, err error) {
	fr, n, err := readHeader(sc.br, maxPayload)
	if err != nil || n == 0 {
		return fr, 0, err
	}
	var t0 time.Time
	if sc.br.Buffered() < n {
		t0 = time.Now()
	}
	if n <= sc.br.Size() {
		fr.Payload, err = sc.br.Peek(n)
	} else {
		fr.Payload = GetBuf(n)[:n]
		if _, err = io.ReadFull(sc.br, fr.Payload); err == nil {
			sc.big = fr.Payload
		} else {
			PutBuf(fr.Payload)
		}
	}
	if err != nil {
		return Frame{}, 0, err
	}
	if !t0.IsZero() {
		wait = time.Since(t0)
	}
	return fr, wait, nil
}

// release gives up the current frame's payload once its reply is encoded:
// the read buffer's bytes are consumed, a pool buffer goes back. Nothing may
// read the payload, or a device ID decoded as a view of it, afterwards; the
// poolcheck build overwrites both so that a test catches whatever does.
func (sc *srvConn) release(payload []byte) {
	poison(payload)
	sc.batch.Release()
	if sc.big != nil {
		PutBuf(sc.big)
		sc.big = nil
	} else {
		_, _ = sc.br.Discard(len(payload)) // cannot fail: the bytes were peeked
	}
}

// frameBuffered reports whether a complete frame is waiting in the read
// buffer, so that serving it cannot block.
func (sc *srvConn) frameBuffered() bool {
	if sc.br.Buffered() < HeaderSize {
		return false
	}
	hdr, _ := sc.br.Peek(HeaderSize)
	return uint64(sc.br.Buffered()-HeaderSize) >= uint64(binary.BigEndian.Uint32(hdr[8:12]))
}

// serveConn runs one connection to completion on one goroutine: read a
// frame, serve it, encode the reply straight into the write buffer, and
// write the buffer out once no further complete frame is already waiting —
// so a pipelined burst costs one write, and replies leave in request order.
// Parallelism comes from connections, not from frames within one.
func (s *Server) serveConn(sc *srvConn) {
	defer func() {
		sc.c.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		s.connsActive.Add(-1)
		s.wg.Done()
	}()
	for s.serveFrame(sc) {
	}
	// Every frame read has been answered; a protocol violation in the
	// middle of a burst leaves the answers before it still to send.
	s.flush(sc)
}

// serveFrame reads and answers one frame. It reports false when the
// connection is finished: EOF, a peer reset, a protocol violation, the drain
// deadline, or a failed write.
func (s *Server) serveFrame(sc *srvConn) bool {
	fr, wait, err := sc.next(s.opts.MaxPayload)
	if err != nil {
		return false
	}
	s.framesIn.Add(1)
	t0 := time.Now()
	sc.wbuf = append(sc.wbuf, make([]byte, HeaderSize)...)
	start := len(sc.wbuf)
	op, sp := s.handle(sc, fr.Op, fr.Payload)
	PutHeader(sc.wbuf[start-HeaderSize:], Version2, op, fr.ID, len(sc.wbuf)-start)
	sc.release(fr.Payload)
	s.svc.Obs().ObserveTotal(obsOpOf(fr.Op), time.Since(t0))
	sc.pending++
	if sp != nil {
		sp.Mark(obs.StageRead, wait)
		sc.spans = append(sc.spans, sp)
	}
	if len(sc.wbuf) < flushAt && sc.frameBuffered() {
		return true
	}
	return s.flush(sc)
}

// flush writes the buffered replies in one write and finishes their sampled
// spans: the write stage is the flush, shared by every reply in it, and a
// reply that could not be written records as an error. It reports false
// when the connection is dead.
func (s *Server) flush(sc *srvConn) bool {
	var t0 time.Time
	if len(sc.spans) > 0 {
		t0 = time.Now()
	}
	err := s.send(sc, sc.wbuf, sc.pending)
	for _, sp := range sc.spans {
		if err != nil {
			sp.SetError()
		} else {
			sp.Mark(obs.StageWrite, time.Since(t0))
		}
		sp.Finish()
	}
	clear(sc.spans)
	sc.spans, sc.pending, sc.wbuf = sc.spans[:0], 0, sc.wbuf[:0]
	if cap(sc.wbuf) > flushAt {
		sc.wbuf = nil // one oversized reply must not pin its footprint
	}
	return err == nil
}

// send writes buf (n frames) under the write deadline. A failed write closes
// the connection: a frame may be half on the wire.
func (s *Server) send(sc *srvConn, buf []byte, n int) error {
	if n == 0 {
		return nil
	}
	// Count before the write, not after: a client that holds its answer must
	// find it counted, and it can read the answer and sample the telemetry
	// before Write has even returned here.
	s.framesOut.Add(int64(n))
	_ = sc.c.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	_, err := sc.c.Write(buf)
	if err != nil {
		s.framesOut.Add(int64(-n))
		sc.c.Close()
	}
	return err
}

// obsOpOf maps an opcode (flag bits ignored) to its observability op.
func obsOpOf(op byte) obs.Op {
	switch op &^ (HopFlag | TraceFlag) {
	case OpCheckInBatch:
		return obs.OpCheckInBatch
	case OpReportBatch:
		return obs.OpReportBatch
	case OpRegisterJob, OpJobs, OpJobStatus:
		return obs.OpJobs
	default:
		return obs.OpOther
	}
}

// serving reports whether op, flags stripped, is one of the two serving
// opcodes: the only ones that may carry HopFlag or TraceFlag.
func serving(op byte) bool {
	return op == OpCheckInBatch || op == OpReportBatch
}

// handle peels the optional trace context off a request frame, starts the
// request's observability span, and dispatches; the reply's payload lands in
// the connection's write buffer and its opcode is returned. A TraceFlag-marked
// frame carries a 9-byte trace prefix: when its sampled bit is set the span is
// forced with the origin's trace ID — the receiving side of a federation hop
// records the same trace the origin did, which is what lets a slow hop in the
// origin's flight recorder be joined against the remote's record. The flag is
// only legal on the two serving opcodes, so no other request can plant a
// forced span. Unsampled requests get the regular 1-in-N sampler; hop requests
// whose origin did not sample never start a span of their own.
func (s *Server) handle(sc *srvConn, op byte, payload []byte) (byte, *obs.Span) {
	var trace uint64
	if op&TraceFlag != 0 {
		op &^= TraceFlag
		if !serving(op &^ HopFlag) {
			return sc.replyErr(server.CodeInvalid, errors.New("transport: trace flag on non-serving opcode")), nil
		}
		id, sampled, rest, err := PeelTrace(payload)
		if err != nil {
			return sc.replyErr(server.CodeInvalid, err), nil
		}
		payload = rest
		if sampled {
			trace = id
		}
	}
	obsOp := obsOpOf(op)
	var sp *obs.Span
	if trace != 0 {
		sp = s.svc.Obs().StartTraced(obsOp, trace)
	} else if op&HopFlag == 0 {
		sp = s.svc.Obs().Sample(obsOp)
	}
	ro := s.dispatch(sc, op, payload, sp)
	if ro == OpError {
		sp.SetError()
	}
	return ro, sp
}

// timed runs f and marks its duration on sp's stage st. The clock reads are
// span-gated, so the unsampled path pays nothing extra.
func timed(sp *obs.Span, st obs.Stage, f func() error) error {
	if sp == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	sp.Mark(st, time.Since(t0))
	return err
}

// dispatch routes one request frame to the service layer and encodes the
// response into the connection's write buffer, returning its opcode. Decode
// errors and service errors both become OpError frames; only framing
// violations (handled in the read loop) close the connection.
//
// A hop-flagged frame was already forwarded once by a peer daemon: it is
// dispatched to the local service unconditionally — the hop guard — so a
// stale ring on a peer can never make a request ping-pong between daemons.
// Its receipt (and payload size, for forward_bytes_in) is recorded with the
// attached federation router, and the flag is echoed on the response opcode.
// The flag is only legal on the two serving opcodes; anything else is
// rejected as invalid.
//
// On a *non-hop* batch request, HopFlag on the response opcode means
// something different: the router forwarded at least one item to a peer
// ("forwarded flag"). Ring-aware clients treat it as a stale-topology signal
// and re-fetch the ring.
//
// Batch frames are decoded into, and answered from, the connection's
// BatchBuf: the decoded device IDs are views of payload, which the caller
// keeps intact until the reply is encoded.
func (s *Server) dispatch(sc *srvConn, op byte, payload []byte, sp *obs.Span) byte {
	forwarded := op&HopFlag != 0
	if forwarded {
		if !serving(op &^ HopFlag) {
			return sc.replyErr(server.CodeInvalid, errors.New("transport: hop flag on non-forwardable opcode"))
		}
		s.svc.NoteForwardedIn(len(payload))
	}
	switch op &^ HopFlag {
	case OpCheckInBatch:
		b := &sc.batch
		if err := timed(sp, obs.StageDecode, func() error { return b.DecodeCheckIns(payload) }); err != nil {
			return sc.replySvcErr(err)
		}
		raw := server.RawItems{Data: payload, Bounds: b.Bounds}
		results, fwd, err := s.svc.CheckInBatchBuf(b, raw, forwarded, sp)
		if err != nil {
			return sc.replySvcErr(err)
		}
		if fwd {
			op |= HopFlag
		}
		sc.ciResp.Results = results
		return sc.reply(op, &sc.ciResp, sp)
	case OpReportBatch:
		b := &sc.batch
		if err := timed(sp, obs.StageDecode, func() error { return b.DecodeReports(payload) }); err != nil {
			return sc.replySvcErr(err)
		}
		raw := server.RawItems{Data: payload, Bounds: b.Bounds}
		results, fwd, err := s.svc.ReportBatchBuf(b, raw, forwarded, sp)
		if err != nil {
			return sc.replySvcErr(err)
		}
		if fwd {
			op |= HopFlag
		}
		sc.repResp.Results = results
		return sc.reply(op, &sc.repResp, sp)
	case OpRegisterJob:
		var spec server.JobSpec
		if err := json.Unmarshal(payload, &spec); err != nil {
			return sc.replyErr(server.CodeInvalid, err)
		}
		st, err := s.svc.RegisterJob(spec)
		if err != nil {
			return sc.replySvcErr(err)
		}
		return sc.reply(op, st, nil)
	case OpJobs:
		return sc.reply(op, s.svc.Jobs(), nil)
	case OpJobStatus:
		var req JobIDRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return sc.replyErr(server.CodeInvalid, err)
		}
		st, err := s.svc.JobStatusByID(req.ID)
		if err != nil {
			return sc.replySvcErr(err)
		}
		return sc.reply(op, st, nil)
	case OpMetrics:
		return sc.reply(op, s.svc.Metrics(), nil)
	case OpPing:
		return op | RespFlag
	case OpTopology:
		info, ok := s.m.Topology()
		if !ok {
			return sc.replyErr(server.CodeUnavailable, errors.New("transport: no federation topology attached"))
		}
		tp := TopologyPayload{Epoch: info.Epoch, VNodes: info.VNodes, Members: info.Members}
		return sc.reply(op, &tp, nil)
	default:
		return sc.replyErr(server.CodeInvalid, errors.New("transport: unknown opcode"))
	}
}

// binaryAppender is the in-place encode fast path: types that can append
// their binary wire form onto the write buffer.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// reply appends a success response's payload to the write buffer and returns
// its opcode. The encoding follows the opcode through the type answering it:
// the serving replies and the topology have a binary codec (appended in place
// when the type supports it), every other reply is JSON. A sampled span gets
// the encode stage marked.
func (sc *srvConn) reply(op byte, v any, sp *obs.Span) byte {
	mark := len(sc.wbuf)
	err := timed(sp, obs.StageEncode, func() (err error) {
		var buf []byte
		if m, ok := v.(binaryAppender); ok {
			sc.wbuf, err = m.AppendBinary(sc.wbuf)
			return err
		} else if m, ok := v.(encoding.BinaryMarshaler); ok {
			buf, err = m.MarshalBinary()
		} else {
			buf, err = json.Marshal(v)
		}
		sc.wbuf = append(sc.wbuf, buf...)
		return err
	})
	if err != nil {
		sc.wbuf = sc.wbuf[:mark]
		return sc.replyErr(server.CodeInvalid, err)
	}
	return op | RespFlag
}

func (sc *srvConn) replySvcErr(err error) byte {
	return sc.replyErr(server.ErrCode(err), err)
}

// replyErr appends an error response's payload to the write buffer.
func (sc *srvConn) replyErr(code server.Code, err error) byte {
	ep := ErrorPayload{Code: int(code), Error: err.Error()}
	buf, _ := ep.MarshalBinary() // cannot fail
	sc.wbuf = append(sc.wbuf, buf...)
	return OpError
}

package transport

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"time"
)

// SetWriteTimeout shortens the server's write deadline for tests.
func (s *Server) SetWriteTimeout(d time.Duration) { s.writeTimeout = d }

// TestConn is a connection served frame by frame on the caller's goroutine,
// so that testing.AllocsPerRun sees the serving path alone.
type TestConn struct {
	s  *Server
	sc *srvConn
}

// NewTestConn wraps c as the server would on accept, without starting a
// goroutine for it.
func (s *Server) NewTestConn(c net.Conn) *TestConn {
	return &TestConn{s: s, sc: &srvConn{c: c, br: bufio.NewReaderSize(c, readBufSize)}}
}

// ServeFrame reads and answers one frame (serveFrame).
func (tc *TestConn) ServeFrame() bool { return tc.s.serveFrame(tc.sc) }

// ReadFrame is ReadFramePooled with a freshly allocated payload, for tests
// that keep frames.
func ReadFrame(br *bufio.Reader, maxPayload int, _ byte) (Frame, error) {
	fr, n, err := readHeader(br, maxPayload)
	if err != nil || n == 0 {
		return fr, err
	}
	fr.Payload = make([]byte, n)
	if _, err := io.ReadFull(br, fr.Payload); err != nil {
		return Frame{}, err
	}
	return fr, nil
}

// AppendTrace appends a trace context to b: the reference encoding
// PrependTrace's output is checked against.
func AppendTrace(b []byte, traceID uint64, sampled bool) []byte {
	var ctx [TraceContextSize]byte
	binary.BigEndian.PutUint64(ctx[:8], traceID)
	if sampled {
		ctx[8] = traceSampledBit
	}
	return append(b, ctx[:]...)
}

package transport

import (
	"bufio"
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

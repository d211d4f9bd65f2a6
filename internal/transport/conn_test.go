package transport_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/server"
	"venn/internal/transport"
)

// countingListener counts the Write calls the server makes on the
// connections it accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// checkInFrame appends a v2 check-in batch frame for n devices named
// prefix-0 … prefix-(n-1).
func checkInFrame(t testing.TB, b []byte, id uint32, prefix string, n int) []byte {
	t.Helper()
	req := server.CheckInBatchRequest{CheckIns: make([]server.CheckIn, n)}
	for i := range req.CheckIns {
		req.CheckIns[i] = server.CheckIn{DeviceID: fmt.Sprintf("%s-%d", prefix, i), CPU: 0.5, Mem: 0.5}
	}
	payload, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	if err := transport.WriteFrame(&w, transport.Version2, transport.OpCheckInBatch, id, payload); err != nil {
		t.Fatal(err)
	}
	return append(b, w.Bytes()...)
}

// TestBurstAnsweredInOrderInOneWrite pipelines 32 frames in a single client
// write: the replies come back in request order, and the server spends at
// most two writes on them (one, unless the burst reached it in two reads).
func TestBurstAnsweredInOrderInOneWrite(t *testing.T) {
	m := server.NewManager(server.Config{})
	ts := transport.NewServer(m, transport.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	go func() { _ = ts.Serve(cl) }()
	defer ts.Close()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const frames = 32
	var burst []byte
	for id := uint32(1); id <= frames; id++ {
		burst = checkInFrame(t, burst, id, fmt.Sprintf("burst%d", id), 2)
	}
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(raw)
	for want := uint32(1); want <= frames; want++ {
		fr, err := transport.ReadFrame(br, 1<<20, transport.MaxVersion)
		if err != nil {
			t.Fatalf("reply %d: %v", want, err)
		}
		if fr.ID != want || fr.Op != transport.OpCheckInBatch|transport.RespFlag {
			t.Fatalf("reply %d: got id %d op %#x", want, fr.ID, fr.Op)
		}
		var resp server.CheckInBatchResponse
		if err := resp.UnmarshalBinary(fr.Payload); err != nil || len(resp.Results) != 2 {
			t.Fatalf("reply %d: %d results, err %v", want, len(resp.Results), err)
		}
	}
	if n := cl.writes.Load(); n > 2 {
		t.Errorf("server made %d writes for one pipelined burst, want at most 2", n)
	}
}

// TestFrameLargerThanReadBuffer sends a batch whose frame does not fit a
// connection's read buffer, so it takes the pooled detour, between two that
// are served in place.
func TestFrameLargerThanReadBuffer(t *testing.T) {
	m, _, addr := startServer(t, transport.Options{})
	c := client.NewStream(addr, client.WithStreamConns(1))
	defer c.Close()
	for _, n := range []int{64, 4096, 64} {
		cis := make([]server.CheckIn, n)
		for i := range cis {
			cis[i] = server.CheckIn{DeviceID: fmt.Sprintf("large-frame-device-%05d", i), CPU: 0.5, Mem: 0.5}
		}
		results, err := c.CheckInBatch(cis)
		if err != nil || len(results) != n {
			t.Fatalf("batch of %d: %d results, err %v", n, len(results), err)
		}
		for i, res := range results {
			if res.Error != "" {
				t.Fatalf("batch of %d, item %d: %s", n, i, res.Error)
			}
		}
	}
	if known := m.MetricsSnapshot().KnownDevices; known != 4096 {
		t.Errorf("registry holds %d devices, want the 4096 distinct IDs sent", known)
	}
}

// wedge connects a client that sends 1,000 requests, each with a reply of
// tens of kilobytes, and never reads one: the replies fill both sockets and
// the connection's goroutine blocks in Write.
func wedge(t *testing.T, m *server.Manager, addr string) net.Conn {
	t.Helper()
	for i := 0; i < 200; i++ {
		if _, err := m.RegisterJob(server.JobSpec{Name: fmt.Sprintf("wedge-%d", i), Category: "General", DemandPerRound: 1, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var w bytes.Buffer
	for id := uint32(1); id <= 1000; id++ {
		_ = transport.WriteFrame(&w, transport.Version2, transport.OpJobs, id, nil)
	}
	if _, err := c.Write(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	return c
}

// waitFor polls the server's telemetry until ok accepts it.
func waitFor(t *testing.T, ts *transport.Server, what string, ok func(server.StreamTelemetry) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok(ts.StreamTelemetry()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, ts.StreamTelemetry())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlowReaderIsDropped: a peer that stops reading its replies costs the
// server one connection for one write deadline, not a wedged goroutine, and
// other clients are served meanwhile.
func TestSlowReaderIsDropped(t *testing.T) {
	m := server.NewManager(server.Config{})
	ts := transport.NewServer(m, transport.Options{})
	ts.SetWriteTimeout(200 * time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ts.Serve(ln) }()
	defer ts.Close()
	wedge(t, m, ln.Addr().String())
	waitFor(t, ts, "the first frames", func(tel server.StreamTelemetry) bool { return tel.StreamFramesIn > 0 })
	waitFor(t, ts, "the drop", func(tel server.StreamTelemetry) bool { return tel.StreamConns == 0 })
	if tel := ts.StreamTelemetry(); tel.StreamFramesOut >= tel.StreamFramesIn {
		t.Errorf("dropped connection: %d frames in, %d out; the unwritten replies must not count", tel.StreamFramesIn, tel.StreamFramesOut)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Shutdown(ctx); err != nil {
		t.Errorf("shutdown after the drop: %v", err)
	}
}

// TestShutdownWithWedgedWriter: Shutdown returns within its context even
// while a connection is blocked writing to a peer that never reads.
func TestShutdownWithWedgedWriter(t *testing.T) {
	m, ts, addr := startServer(t, transport.Options{})
	wedge(t, m, addr)
	// Blocked means: frames were read, and the out counter stopped moving.
	out := int64(-1)
	waitFor(t, ts, "the writer to block", func(tel server.StreamTelemetry) bool {
		stuck := tel.StreamFramesIn > 0 && tel.StreamFramesOut == out
		out = tel.StreamFramesOut
		time.Sleep(50 * time.Millisecond)
		return stuck
	})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if err := ts.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("shutdown with a wedged writer returned %v, want the context's deadline error", err)
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Errorf("shutdown took %v, well past its 300ms context", d)
	}
	if n := ts.StreamTelemetry().StreamConns; n != 0 {
		t.Errorf("%d connections survived shutdown", n)
	}
}

// replayConn feeds the server the same bytes again on every Rewind and
// discards what the server writes.
type replayConn struct {
	net.Conn // nil: only the methods below are called
	r        bytes.Reader
	data     []byte
}

func (c *replayConn) Rewind()                          { c.r.Reset(c.data) }
func (c *replayConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *replayConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }
func (c *replayConn) Close() error                     { return nil }

// TestWarmBatchFramesAllocateNothing pins the serving path's steady state: a
// warm 64-item surplus check-in frame, and a warm 64-item report frame, are
// read, decoded, applied, encoded and flushed without one allocation.
func TestWarmBatchFramesAllocateNothing(t *testing.T) {
	m := server.NewManager(server.Config{ObsSampleEvery: -1}) // a sampled span is an allocation
	ts := transport.NewServer(m, transport.Options{})
	defer ts.Close()

	checkIn := checkInFrame(t, nil, 1, "warm", 64)
	reports := server.ReportBatchRequest{Reports: make([]server.Report, 64)}
	for i := range reports.Reports {
		reports.Reports[i] = server.Report{DeviceID: fmt.Sprintf("warm-%d", i), JobID: 99, OK: true, DurationSeconds: 30}
	}
	payload, err := reports.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	_ = transport.WriteFrame(&w, transport.Version2, transport.OpReportBatch, 2, payload)

	for _, tc := range []struct {
		name  string
		frame []byte
	}{{"check-in", checkIn}, {"report", w.Bytes()}} {
		name := tc.name
		c := &replayConn{data: tc.frame}
		tc := ts.NewTestConn(c)
		serve := func() {
			c.Rewind()
			if !tc.ServeFrame() {
				t.Fatalf("%s frame: connection ended", name)
			}
		}
		serve() // cold: registers the devices (which the reports then name), sizes the buffers
		before := ts.StreamTelemetry()
		if allocs := testing.AllocsPerRun(200, serve); allocs != 0 && !raceEnabled {
			t.Errorf("warm %s frame: %v allocations, want 0", name, allocs)
		}
		after := ts.StreamTelemetry()
		if in, out := after.StreamFramesIn-before.StreamFramesIn, after.StreamFramesOut-before.StreamFramesOut; in != 201 || out != 201 {
			t.Errorf("%s frames: %d in, %d out, want 201 each", name, in, out)
		}
	}
	if st := m.MetricsSnapshot(); st.CheckIns == 0 {
		t.Error("the check-in frames did not reach the manager")
	}
}

// TestWarmForwardedFrameAllocatesNothing is TestWarmBatchFramesAllocateNothing
// with a federation attached: two daemons over loopback, and a warm 64-item
// surplus frame of which the ring gives about half to the other one. The
// origin's side — serveFrame, the owner plan, the relay, the merge — runs on
// the test goroutine; the hop frame, the owner serving it and the reply
// decoded into the origin's slots run behind it; AllocsPerRun counts them all.
func TestWarmForwardedFrameAllocatesNothing(t *testing.T) {
	var addrs []string
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns, addrs = append(lns, ln), append(addrs, ln.Addr().String())
	}
	var origin *transport.Server
	var clus []*cluster.Cluster
	for i := range addrs {
		m := server.NewManager(server.Config{ObsSampleEvery: -1}) // a sampled span is an allocation
		ts := transport.NewServer(m, transport.Options{})
		go func(ln net.Listener) { _ = ts.Serve(ln) }(lns[i])
		// No health pings during the count; one hop connection, so that it is
		// the warm one every time.
		clu, err := cluster.New(m, cluster.Config{SelfID: addrs[i], Peers: addrs, HealthInterval: time.Hour, StreamConns: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = clu.Close(); _ = ts.Close() })
		clus = append(clus, clu)
		if i == 0 {
			origin = ts
		}
	}

	c := &replayConn{data: checkInFrame(t, nil, 1, "warm-fwd", 64)}
	tc := origin.NewTestConn(c)
	serve := func() {
		c.Rewind()
		if !tc.ServeFrame() {
			t.Fatal("connection ended")
		}
	}
	serve() // cold: dials the peer, registers the devices, sizes the buffers
	before := clus[0].ClusterTelemetry().ClusterForwardsOut
	if allocs := testing.AllocsPerRun(200, serve); allocs != 0 && !raceEnabled {
		t.Errorf("warm forwarded frame: %v allocations, want 0", allocs)
	}
	tel := clus[0].ClusterTelemetry()
	in, out, errs, fallbacks := tel.ClusterForwardsIn, tel.ClusterForwardsOut, tel.ClusterForwardErrors, tel.ClusterLocalFallbacks
	peerIn := clus[1].ClusterTelemetry().ClusterForwardsIn
	if out-before != 201 || peerIn != 202 || in != 0 || errs != 0 || fallbacks != 0 {
		t.Errorf("hop frames: %d out of the origin (%d into the peer), %d errors, %d fallbacks; want one per frame, clean",
			out-before, peerIn, errs, fallbacks)
	}
}

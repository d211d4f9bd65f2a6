package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"venn/internal/server"
)

// scriptConn is a connection whose peer sent in and closed; reads hand it out
// chunk bytes at a time, so that frames arrive split at every boundary the
// fuzzer finds. What the server writes collects in out.
type scriptConn struct {
	net.Conn // never called: the server only reads, writes, sets deadlines and closes
	in       []byte
	chunk    int
	out      bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// The fuzzed connection reads through a buffer far smaller than readBufSize,
// and the server's frame bound sits above it: short inputs then reach both the
// in-place path and the pooled detour, and every boundary between them. Inputs
// of production size would leave the fuzzer minimizing 64 KiB finds.
const (
	fuzzReadBuf    = 256
	fuzzMaxPayload = 16 * fuzzReadBuf
)

// requestIDs walks data the way a correct server must: whole frames with good
// magic, version 2 and a payload within bounds are requests, and the first
// frame that is none of that ends the connection.
func requestIDs(data []byte) (ids []uint32) {
	for len(data) >= HeaderSize {
		n := binary.BigEndian.Uint32(data[8:12])
		if data[0] != Magic0 || data[1] != Magic1 || data[2] != Version2 ||
			n > fuzzMaxPayload || uint64(n) > uint64(len(data)-HeaderSize) {
			break
		}
		ids = append(ids, binary.BigEndian.Uint32(data[4:8]))
		data = data[HeaderSize+int(n):]
	}
	return ids
}

// FuzzServeFrames feeds arbitrary bytes to the server as one connection's
// whole input. Whatever they are, the server must not panic or stall, and it
// must answer every complete well-formed request frame — and nothing else —
// with exactly one reply frame of version 2 carrying the request's ID, in
// request order. The seeds hold one valid frame per opcode, the flag and
// framing violations, and a frame too large for the read buffer.
//
// CI runs this with a short -fuzztime as a smoke pass; grow the corpus
// locally with `go test -fuzz=FuzzServeFrames ./internal/transport/`.
func FuzzServeFrames(f *testing.F) {
	frame := func(ver, op byte, id uint32, payload []byte) []byte {
		b := make([]byte, HeaderSize, HeaderSize+len(payload))
		PutHeader(b, ver, op, id, len(payload))
		return append(b, payload...)
	}
	bin := func(b []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	ci := server.CheckIn{DeviceID: "dev-0", CPU: 0.9, Mem: 0.9}
	rep := server.Report{DeviceID: "dev-0", JobID: 0, OK: true, DurationSeconds: 3}
	big := make([]server.CheckIn, 40) // encodes past fuzzReadBuf
	for i := range big {
		big[i] = server.CheckIn{DeviceID: fmt.Sprintf("device-number-%06d", i), CPU: 0.5, Mem: 0.5}
	}
	seeds := [][]byte{
		frame(Version2, OpRegisterJob, 1, []byte(`{"name":"j","category":"General","demand_per_round":2,"rounds":1}`)),
		frame(Version2, OpCheckInBatch, 3, bin((&server.CheckInBatchRequest{CheckIns: []server.CheckIn{ci, {DeviceID: "dev-1", CPU: 0.2, Mem: 0.2}}}).MarshalBinary())),
		frame(Version2, OpCheckInBatch, 2, bin((&server.CheckInBatchRequest{CheckIns: []server.CheckIn{ci}}).MarshalBinary())),
		frame(Version2, OpReportBatch, 4, bin((&server.ReportBatchRequest{Reports: []server.Report{rep, {DeviceID: "dev-1", OK: false}}}).MarshalBinary())),
		frame(Version2, OpReportBatch, 5, bin((&server.ReportBatchRequest{Reports: []server.Report{rep}}).MarshalBinary())),
		frame(Version2, OpJobs, 6, nil),
		frame(Version2, OpJobStatus, 7, []byte(`{"id":0}`)),
		frame(Version2, OpMetrics, 8, nil),
		frame(Version2, OpMetrics, 9, nil),
		frame(Version2, OpPing, 10, nil),
		frame(Version2, OpTopology, 11, nil),
		frame(Version2, OpCheckInBatch|HopFlag|TraceFlag, 12, AppendTrace(nil, 0xfeed, true)),
		frame(Version2, OpReportBatch|TraceFlag, 13, []byte{1, 2, 3}),
		frame(Version2, OpMetrics|TraceFlag, 14, AppendTrace(nil, 0xfeed, true)),
		frame(Version2, OpMetrics|HopFlag, 15, nil),
		frame(Version2, 0x0B, 16, []byte(`{"max_version":2}`)),
		frame(Version2, OpError, 17, nil),
		frame(Version2, OpCheckInBatch, 18, bin((&server.CheckInBatchRequest{CheckIns: big}).MarshalBinary())),
		frame(1, OpPing, 19, nil),
		frame(Version2, OpCheckInBatch, 20, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}),
	}
	var burst []byte
	for _, s := range seeds {
		f.Add(s, uint16(len(s)))
		f.Add(s, uint16(5))
		burst = append(burst, s...)
	}
	f.Add(burst, uint16(len(burst)))
	f.Add(burst[:len(burst)-7], uint16(1000))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"), uint16(64))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		s := NewServer(server.NewManager(server.Config{Seed: 1}), Options{MaxPayload: fuzzMaxPayload})
		conn := &scriptConn{in: data, chunk: int(chunk) + 1}
		sc := &srvConn{c: conn, br: bufio.NewReaderSize(conn, fuzzReadBuf)}
		s.wg.Add(1)
		s.connsActive.Add(1)
		s.serveConn(sc) // the input is finite and reads never block: a stall is a hang the fuzzer reports

		want := requestIDs(data)
		if tel := s.StreamTelemetry(); tel.StreamFramesIn != int64(len(want)) || tel.StreamFramesOut != int64(len(want)) {
			t.Fatalf("%d request frames, but frames in %d out %d", len(want), tel.StreamFramesIn, tel.StreamFramesOut)
		}
		br := bufio.NewReader(&conn.out)
		for i, id := range want {
			fr, err := ReadFrame(br, 64<<20, MaxVersion)
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i, len(want), err)
			}
			if fr.ID != id || (fr.Op != OpError && fr.Op&RespFlag == 0) {
				t.Fatalf("reply %d: op %#x id %d, want a response to request ID %d", i, fr.Op, fr.ID, id)
			}
		}
		if n := br.Buffered() + conn.out.Len(); n != 0 {
			t.Fatalf("%d bytes written past the %d replies", n, len(want))
		}
	})
}

package transport_test

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/server"
	"venn/internal/transport"
)

// TestV2BinaryOnTheWire asserts a client ↔ server pair moves the serving
// opcodes as binary frames, typed errors come back binary too, and the first
// frame a fresh client writes on a new connection is its request: the server
// reads exactly one frame per call made, so nothing is exchanged at dial.
func TestV2BinaryOnTheWire(t *testing.T) {
	_, ts, addr := startServer(t, transport.Options{})
	c := client.NewStream(addr, client.WithStreamConns(1))
	defer c.Close()

	if _, err := c.CheckInBatch([]server.CheckIn{{DeviceID: "dev", CPU: 0.5, Mem: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if tel := ts.StreamTelemetry(); tel.StreamFramesIn != 1 || tel.StreamFramesOut != 1 {
		t.Errorf("after the first call: frames in %d out %d, want 1 and 1", tel.StreamFramesIn, tel.StreamFramesOut)
	}
	if _, err := c.ReportBatch([]server.Report{{DeviceID: "dev", OK: true}}); err != nil {
		t.Fatal(err)
	}
	// A service rejection: binary error payload with the stable code, decoded
	// into the typed StreamError. Control opcodes answer errors the same way.
	if _, err := c.CheckInBatch(make([]server.CheckIn, server.MaxBatch+1)); err == nil {
		t.Fatal("oversized batch accepted")
	} else if client.ErrCode(err) != server.CodeTooLarge {
		t.Errorf("error code = %d, want CodeTooLarge", client.ErrCode(err))
	}
	if _, err := c.JobStatus(999); client.ErrCode(err) != server.CodeNotFound {
		t.Errorf("missing job: err %v, want CodeNotFound", err)
	}
	// A second client's first frame is its request too, whatever the opcode.
	c2 := client.NewStream(addr, client.WithStreamConns(1))
	defer c2.Close()
	if _, err := c2.Metrics(); err != nil {
		t.Fatal(err)
	}
	if tel := ts.StreamTelemetry(); tel.StreamFramesIn != 5 || tel.StreamFramesOut != 5 {
		t.Errorf("after 5 calls: frames in %d out %d, want 5 and 5", tel.StreamFramesIn, tel.StreamFramesOut)
	}
}

// rawConn is a hand-driven connection: whole frames out, one reply in.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

// roundTrip writes one frame and reads the reply.
func (rc *rawConn) roundTrip(op byte, id uint32, payload []byte) transport.Frame {
	rc.t.Helper()
	hdr := make([]byte, transport.HeaderSize)
	transport.PutHeader(hdr, transport.Version2, op, id, len(payload))
	if _, err := rc.c.Write(append(hdr, payload...)); err != nil {
		rc.t.Fatal(err)
	}
	_ = rc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	fr, err := transport.ReadFrame(rc.br, 1<<20, transport.MaxVersion)
	if err != nil {
		rc.t.Fatalf("op %#x: %v", op, err)
	}
	if fr.Ver != transport.Version2 || fr.ID != id {
		rc.t.Errorf("op %#x: reply version %d id %d, want version 2 id %d", op, fr.Ver, fr.ID, id)
	}
	return fr
}

// TestOneDialect pins the protocol's single dialect at the frame level: any
// version byte but 2 is a framing violation, a payload's encoding follows its
// opcode, and every malformed-but-framed request gets a binary OpError on a
// connection that stays usable. The retired single-item opcodes 0x01 and 0x03
// and the retired stats opcode 0x08 are unknown opcodes like any other,
// flagged or not.
func TestOneDialect(t *testing.T) {
	m, ts, addr := startServer(t, transport.Options{})

	for _, ver := range []byte{0, 1, 3} {
		rc := dialRaw(t, addr)
		hdr := make([]byte, transport.HeaderSize)
		transport.PutHeader(hdr, ver, transport.OpPing, 1, 0)
		if _, err := rc.c.Write(hdr); err != nil {
			t.Fatal(err)
		}
		if err := readDropped(rc.c); err != nil {
			t.Errorf("version byte %d: %v", ver, err)
		}
	}
	if tel := ts.StreamTelemetry(); tel.StreamFramesIn != 0 || tel.StreamFramesOut != 0 {
		t.Errorf("rejected versions counted: frames in %d out %d, want 0 and 0", tel.StreamFramesIn, tel.StreamFramesOut)
	}

	rc := dialRaw(t, addr)
	spec, _ := json.Marshal(server.JobSpec{Name: "j", Category: "General", DemandPerRound: 1, Rounds: 1})
	for i, tc := range []struct {
		op      byte
		payload []byte
	}{
		{transport.OpRegisterJob, spec},
		{transport.OpJobs, nil},
		{transport.OpJobStatus, []byte(`{"id":0}`)},
		{transport.OpMetrics, nil},
	} {
		fr := rc.roundTrip(tc.op, uint32(i+1), tc.payload)
		if fr.Op != tc.op|transport.RespFlag || !json.Valid(fr.Payload) {
			t.Errorf("control op %#x: reply op %#x payload %q, want a JSON success reply", tc.op, fr.Op, fr.Payload)
		}
	}

	sampled := transport.AppendTrace(nil, 0xfeed, true)
	ci := server.CheckIn{DeviceID: "dev", CPU: 0.5, Mem: 0.5}
	single, _ := ci.AppendBinary(nil)
	rep := server.Report{DeviceID: "dev", OK: true}
	singleRep, _ := rep.AppendBinary(nil)
	for i, tc := range []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"unknown opcode", 0x70, nil},
		{"retired negotiation opcode", 0x0B, []byte(`{"max_version":2}`)},
		{"hop flag on a control opcode", transport.OpMetrics | transport.HopFlag, nil},
		{"trace flag on a control opcode", transport.OpMetrics | transport.TraceFlag, sampled},
		{"truncated trace prefix", transport.OpCheckInBatch | transport.TraceFlag, sampled[:4]},
		{"retired single check-in opcode", 0x01, single},
		{"retired single report opcode", 0x03, singleRep},
		{"hop flag on the retired check-in opcode", 0x01 | transport.HopFlag, single},
		{"retired stats opcode", 0x08, nil},
		{"hop flag on the retired stats opcode", 0x08 | transport.HopFlag, nil},
		{"trace flag on the retired check-in opcode", 0x01 | transport.TraceFlag, append(append([]byte{}, sampled...), single...)},
	} {
		fr := rc.roundTrip(tc.op, uint32(100+i), tc.payload)
		var ep transport.ErrorPayload
		if fr.Op != transport.OpError {
			t.Errorf("%s: reply op %#x, want OpError", tc.name, fr.Op)
		} else if err := ep.UnmarshalBinary(fr.Payload); err != nil || ep.Code != int(server.CodeInvalid) {
			t.Errorf("%s: error payload %q (decode err %v, code %d), want binary CodeInvalid", tc.name, fr.Payload, err, ep.Code)
		}
	}
	if fr := rc.roundTrip(transport.OpPing, 200, nil); fr.Op != transport.OpPing|transport.RespFlag {
		t.Errorf("ping after the rejections: reply op %#x", fr.Op)
	}
	if tel := ts.StreamTelemetry(); tel.StreamFramesIn != tel.StreamFramesOut {
		t.Errorf("frames in %d, out %d: every request frame must get one reply", tel.StreamFramesIn, tel.StreamFramesOut)
	}
	// Fewer requests than one sampling period were made, so any recorded span
	// would be the forced one a trace-flagged control frame must not plant.
	if n := m.MetricsSnapshot().FlightRecorded; n != 0 {
		t.Errorf("flight recorder holds %d spans, want 0", n)
	}
}

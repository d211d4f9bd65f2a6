package transport_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"

	"venn/internal/server"
	"venn/internal/transport"
)

// BenchmarkServeConnCheckInBatch is the stream server's per-frame cost in
// isolation: one loopback connection, one warm 64-item surplus check-in frame
// in flight at a time, walking a 100,000-device registry. The client side is
// a raw socket with fixed buffers, so allocs/op is the server's.
func BenchmarkServeConnCheckInBatch(b *testing.B) {
	const devices, batch = 100_000, 64
	m := server.NewManager(server.Config{ObsSampleEvery: -1})
	ts := transport.NewServer(m, transport.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = ts.Serve(ln) }()
	defer ts.Close()

	// One pre-encoded frame per 64 devices; the first pass registers them.
	var frames [][]byte
	for lo := 0; lo < devices; lo += batch {
		req := server.CheckInBatchRequest{CheckIns: make([]server.CheckIn, 0, batch)}
		for i := lo; i < min(lo+batch, devices); i++ {
			req.CheckIns = append(req.CheckIns, server.CheckIn{DeviceID: fmt.Sprintf("dev-%06d", i), CPU: 0.5, Mem: 0.5})
		}
		payload, err := req.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var w bytes.Buffer
		_ = transport.WriteFrame(&w, transport.Version2, transport.OpCheckInBatch, uint32(len(frames)+1), payload)
		frames = append(frames, w.Bytes())
	}
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	reply := make([]byte, 4096)
	roundTrip := func(frame []byte) {
		if _, err := c.Write(frame); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(c, reply[:transport.HeaderSize]); err != nil {
			b.Fatal(err)
		}
		if reply[3] != transport.OpCheckInBatch|transport.RespFlag {
			b.Fatalf("reply opcode %#x", reply[3])
		}
		n := binary.BigEndian.Uint32(reply[8:12])
		if _, err := io.ReadFull(c, reply[:n]); err != nil {
			b.Fatal(err)
		}
	}
	for _, f := range frames {
		roundTrip(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(frames[i%len(frames)])
	}
}

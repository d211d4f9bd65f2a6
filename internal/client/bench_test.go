package client

import (
	"fmt"
	"net"
	"testing"

	"venn/internal/server"
	"venn/internal/transport"
)

// BenchmarkStreamClientDo is one stream client call end to end over
// loopback, server included: ping is the call's fixed cost (frame out, wait,
// frame in), checkin64 adds a 64-item surplus batch and its decoded results.
// allocs/op is the figure to watch — what a call allocates beyond the
// results it hands back.
func BenchmarkStreamClientDo(b *testing.B) {
	c, cis := doBenchClient(b)
	b.Run("ping", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Ping(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checkin64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.CheckInBatch(cis); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// doBenchClient starts a daemon's stream listener on loopback and returns a
// one-connection client of it with a 64-device surplus batch to send.
func doBenchClient(tb testing.TB) (*StreamClient, []server.CheckIn) {
	m := server.NewManager(server.Config{ObsSampleEvery: -1})
	ts := transport.NewServer(m, transport.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = ts.Serve(ln) }()
	c := NewStream(ln.Addr().String(), WithStreamConns(1))
	tb.Cleanup(func() { _ = c.Close(); _ = ts.Close() })

	cis := make([]server.CheckIn, 64)
	for i := range cis {
		cis[i] = server.CheckIn{DeviceID: fmt.Sprintf("dev-%06d", i), CPU: 0.5, Mem: 0.5}
	}
	return c, cis
}

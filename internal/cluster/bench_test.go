package cluster_test

import (
	"fmt"
	"testing"

	"venn/internal/client"
	"venn/internal/server"
)

// BenchmarkForwardPath profiles the server-side federation hop: a plain
// (ring-unaware) client batches check-ins into one daemon of a two-member
// federation over real loopback transport, so roughly half of every batch
// crosses the relay to its owner. ReportAllocs counts allocations
// process-wide — client call, ingress frame, plan and relay, hop frame, peer
// frame, reply decode and merge — and the whole hop serves out of the two
// connections' BatchBufs and pooled buffers: what is left is the result slice
// the client API hands its caller (TestWarmForwardedFrameAllocatesNothing
// pins the serving side at zero).
func BenchmarkForwardPath(b *testing.B) {
	b.Run("relay", func(b *testing.B) {
		nodes := startFederation(b, 2, nil)
		c := client.NewStream(nodes[0].addr)
		defer c.Close()

		batch := make([]server.CheckIn, 128)
		for i := range batch {
			batch[i] = server.CheckIn{DeviceID: fmt.Sprintf("bench-dev-%04d", i), CPU: 0.5, Mem: 0.5}
		}

		send := func() {
			if _, err := c.CheckInBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		send() // cold: dials, registers the devices, sizes the buffers
		if allocs := testing.AllocsPerRun(50, send); allocs > 5 {
			b.Fatalf("%v allocations per warm forwarded batch, want at most 5 (36 before the hop served out of BatchBuf)", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send()
		}
		b.StopTimer()
		tel := nodes[0].clu.ClusterTelemetry()
		out, errs := tel.ClusterForwardsOut, tel.ClusterForwardErrors
		if out == 0 || errs != 0 {
			b.Fatalf("forward path not exercised: out=%d errs=%d", out, errs)
		}
	})
}

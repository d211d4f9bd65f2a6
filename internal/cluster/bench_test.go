package cluster_test

import (
	"fmt"
	"sync"
	"testing"

	"venn/internal/client"
	"venn/internal/server"
)

// BenchmarkForwardPath profiles the server-side federation hop: a plain
// (ring-unaware) client batches check-ins into one daemon of a two-member
// federation over real loopback transport, so roughly half of every batch
// crosses a hop to its owner. ReportAllocs counts allocations process-wide —
// client call, ingress frame, plan and hop payload, hop frame, peer frame,
// reply decode and merge — and the whole hop serves out of the two
// connections' BatchBufs and pooled buffers: what is left is the result slice
// the client API hands its caller (TestWarmForwardedFrameAllocatesNothing
// pins the serving side at zero).
//
// "contended" has 8 goroutines share one client, whose pooled connections
// the ingress daemon serves concurrently: the one shape in which concurrent
// batches have hops to the same owner in flight together. It reports the hop
// frames each batch cost (hops/batch).
func BenchmarkForwardPath(b *testing.B) {
	fleet := func(tag string) []server.CheckIn {
		batch := make([]server.CheckIn, 128)
		for i := range batch {
			batch[i] = server.CheckIn{DeviceID: fmt.Sprintf("%s-%04d", tag, i), CPU: 0.5, Mem: 0.5}
		}
		return batch
	}
	b.Run("hop", func(b *testing.B) {
		nodes := startFederation(b, 2, nil)
		c := client.NewStream(nodes[0].addr)
		defer c.Close()

		batch := fleet("bench-dev")
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
	b.Run("contended", func(b *testing.B) {
		const senders = 8
		nodes := startFederation(b, 2, nil)
		c := client.NewStream(nodes[0].addr)
		defer c.Close()

		var batches [senders][]server.CheckIn
		for g := range batches {
			batches[g] = fleet(fmt.Sprintf("contend-%d", g))
			if _, err := c.CheckInBatch(batches[g]); err != nil { // cold
				b.Fatal(err)
			}
		}
		before := nodes[0].clu.ClusterTelemetry().ClusterForwardsOut
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < b.N; i += senders {
					if _, err := c.CheckInBatch(batches[g]); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		tel := nodes[0].clu.ClusterTelemetry()
		if tel.ClusterForwardsOut == before || tel.ClusterForwardErrors != 0 {
			b.Fatalf("forward path not exercised: out=%d errs=%d", tel.ClusterForwardsOut-before, tel.ClusterForwardErrors)
		}
		b.ReportMetric(float64(tel.ClusterForwardsOut-before)/float64(b.N), "hops/batch")
	})
}

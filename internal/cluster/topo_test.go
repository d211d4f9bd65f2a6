package cluster_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/hashring"
	"venn/internal/server"
)

// ringAware dials addr with ring-aware routing on and returns the concrete
// stream client (the topology API lives on *StreamClient).
func ringAware(t *testing.T, addr string) *client.StreamClient {
	t.Helper()
	c, ok := client.New(addr, client.WithTopology(true)).(*client.StreamClient)
	if !ok {
		t.Fatal("ring-aware client is not a StreamClient")
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func marshalResults(t *testing.T, res []server.CheckInResult) string {
	t.Helper()
	resp := server.CheckInBatchResponse{Results: res}
	buf, err := resp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestStaleTopologyCorrection pins the staleness contract end to end over
// real transport, for two stale views. A client whose ring disagrees with
// the servers' misroutes a fraction of its items, the daemon that receives
// them forwards them server-side and flags the response, and the client
// re-syncs from the flag: the client learns the ring only by asking, so the
// flag is the whole correction. The first view has a different vnode count,
// the worst realistic skew (every send is partitioned under one view, then
// lands on daemons running another). The second lists only the seed member,
// the view of a client that missed a member's recovery: it sends everything
// to the seed. Correctness is asserted the strong way: each stale client's
// merged results are byte-identical to a fresh-topology client's for the
// same fleet, and after the re-sync its traffic stops producing forwards
// entirely.
//
// Run under -race in CI: batch sends race against the asynchronous
// markStale→fetch→install path.
func TestStaleTopologyCorrection(t *testing.T) {
	fedA := startFederation(t, 2, nil) // serves the stale client
	fedB := startFederation(t, 2, nil) // serves the fresh client

	membersA := []string{fedA[0].addr, fedA[1].addr}

	stale := ringAware(t, fedA[0].addr)
	fresh := ringAware(t, fedB[0].addr)

	// Inject a 1-vnode view at epoch 0: same members, materially different
	// ownership than the servers' 128-vnode ring, and older than any epoch
	// the servers will ever publish (they start at 1).
	stale.InjectTopologyForTest(0, 1, membersA)

	// The test is only meaningful if the rings actually disagree for this
	// fleet — verify rather than assume.
	staleRing := hashring.New(membersA, 1)
	fleet := make([]server.CheckIn, 256)
	misroutes := 0
	for i := range fleet {
		id := fmt.Sprintf("stale-dev-%04d", i)
		fleet[i] = server.CheckIn{DeviceID: id, CPU: 0.5, Mem: 0.5}
		if staleRing.Owner(id) != fedA[0].clu.Ring().Owner(id) {
			misroutes++
		}
	}
	if misroutes == 0 {
		t.Fatal("1-vnode and 128-vnode rings agree on every device; stale view exercises nothing")
	}

	// No jobs are registered on either federation, so every check-in answers
	// the deterministic unassigned result — making cross-cluster comparison
	// exact instead of schedule-dependent.
	sendAll := func(c *client.StreamClient) []server.CheckInResult {
		out := make([]server.CheckInResult, len(fleet))
		var wg sync.WaitGroup
		errs := make([]error, len(fleet)/64)
		for lo := 0; lo < len(fleet); lo += 64 {
			wg.Add(1)
			go func(slot, lo int) {
				defer wg.Done()
				res, err := c.CheckInBatch(fleet[lo : lo+64])
				if err != nil {
					errs[slot] = err
					return
				}
				copy(out[lo:], res)
			}(lo/64, lo)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	// Warm the fresh client's view with one routed call: the first topology
	// fetch is single-flight, and concurrent callers that lose the race fall
	// back to plain seed routing (allowed to forward) by design.
	if _, err := fresh.CheckInBatch([]server.CheckIn{{DeviceID: "warmup", CPU: 0.1, Mem: 0.1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.TopologyEpoch(); !ok {
		t.Fatal("fresh client has no topology view after first call")
	}

	staleRes := sendAll(stale)
	freshRes := sendAll(fresh)
	if marshalResults(t, staleRes) != marshalResults(t, freshRes) {
		t.Fatal("stale-topology client results differ from fresh-topology client results")
	}

	forwardsA := func() int64 {
		var total int64
		for _, nd := range fedA {
			out := nd.clu.ClusterTelemetry().ClusterForwardsOut
			total += out
		}
		return total
	}
	// resynced checks the correction for client c: the forwarded flag must
	// have triggered a re-fetch, so wait for the corrected view (any
	// server-published epoch, i.e. > the injected 0). With the corrected ring
	// the client and servers agree on every owner: further traffic must
	// produce zero new forwards.
	resynced := func(c *client.StreamClient) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if epoch, ok := c.TopologyEpoch(); ok && epoch > 0 {
				break
			}
			if time.Now().After(deadline) {
				epoch, ok := c.TopologyEpoch()
				t.Fatalf("client never re-synced: epoch=%d active=%v", epoch, ok)
			}
			time.Sleep(5 * time.Millisecond)
		}
		before := forwardsA()
		if marshalResults(t, sendAll(c)) != marshalResults(t, freshRes) {
			t.Fatal("post-correction results differ")
		}
		if after := forwardsA(); after != before {
			t.Fatalf("corrected client still causes forwards: %d -> %d", before, after)
		}
	}
	resynced(stale)

	// The second stale view: only the seed, at epoch 0, as held by a client
	// that fetched while fedA[1] was down and missed its recovery. Every
	// item goes to fedA[0], which forwards fedA[1]'s share.
	missed := ringAware(t, fedA[0].addr)
	missed.InjectTopologyForTest(0, hashring.DefaultVNodes, membersA[:1])
	before := forwardsA()
	if marshalResults(t, sendAll(missed)) != marshalResults(t, freshRes) {
		t.Fatal("seed-only-view client results differ from fresh-topology client results")
	}
	if forwardsA() == before {
		t.Fatal("seed-only view caused no forwards before its re-sync; stale view exercises nothing")
	}
	resynced(missed)

	// The fresh client, ring-aware from its first call, must never have
	// caused a forward at all — and its direct sub-batches are counted.
	var freshForwards, direct int64
	for _, nd := range fedB {
		out := nd.clu.ClusterTelemetry().ClusterForwardsOut
		freshForwards += out
		direct += nd.clu.ClusterTelemetry().DirectRoutedBatches
	}
	if freshForwards != 0 {
		t.Fatalf("fresh-topology client caused %d forwards, want 0", freshForwards)
	}
	if direct == 0 {
		t.Fatal("no direct-routed batches counted on the fresh federation")
	}
}

// TestRingAwareFailoverLosesNoCheckIn pins topo.go's failover contract with
// a member gone: once B's cluster and listener are closed, every sub-batch
// a ring-aware client sends to B fails in transport and is retried once on
// A, which serves it locally. Fifty batches spanning both owners must all
// succeed with no per-item error, A must count no forward error (a forward
// that provably never reached B falls back locally), and A's health loop
// must mark B down.
func TestRingAwareFailoverLosesNoCheckIn(t *testing.T) {
	fed := startFederation(t, 2, func(cfg *cluster.Config) { cfg.HealthInterval = 20 * time.Millisecond })
	a, b := fed[0], fed[1]
	c := ringAware(t, a.addr)

	batch := func(tag string, n int) []server.CheckIn {
		cis := make([]server.CheckIn, n)
		for i := range cis {
			cis[i] = server.CheckIn{DeviceID: fmt.Sprintf("%s-%03d", tag, i), CPU: 0.5, Mem: 0.5}
		}
		return cis
	}
	if _, err := c.CheckInBatch(batch("warm", 64)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.TopologyEpoch(); !ok {
		t.Fatal("client has no topology view after its first call")
	}

	_ = b.clu.Close()
	_ = b.ts.Close()

	ring := a.clu.Ring()
	for k := 0; k < 50; k++ {
		cis := batch(fmt.Sprintf("chaos-%02d", k), 256)
		owners := map[string]bool{}
		for _, ci := range cis {
			owners[ring.Owner(ci.DeviceID)] = true
		}
		if len(owners) != 2 {
			t.Fatalf("batch %d spans %d owners, want 2", k, len(owners))
		}
		res, err := c.CheckInBatch(cis)
		if err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		for i, r := range res {
			if r.Error != "" {
				t.Fatalf("batch %d item %s: %s", k, cis[i].DeviceID, r.Error)
			}
		}
	}
	if n := a.clu.ClusterTelemetry().ClusterForwardErrors; n != 0 {
		t.Fatalf("survivor counted %d forward errors, want 0", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.clu.ClusterTelemetry().ClusterPeersDown != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("survivor never marked its peer down: %+v", a.clu.ClusterTelemetry().ClusterPeerStates)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package cluster_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/hashring"
	"venn/internal/server"
	"venn/internal/transport"
)

// node is one federated daemon for tests: manager, stream listener, cluster.
type node struct {
	m    *server.Manager
	ts   *transport.Server
	clu  *cluster.Cluster
	addr string
}

// startFederation spins n daemons on loopback stream listeners, federates
// them over each other's real addresses, and registers cleanup in reverse
// dependency order (clusters before listeners).
func startFederation(t testing.TB, n int, tweak func(*cluster.Config)) []*node {
	t.Helper()
	nodes := make([]*node, n)
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range nodes {
		m := server.NewManager(server.Config{})
		ts := transport.NewServer(m, transport.Options{})
		go func(ln net.Listener) { _ = ts.Serve(ln) }(lns[i])
		cfg := cluster.Config{
			SelfID:         addrs[i],
			Peers:          addrs,
			HealthInterval: 50 * time.Millisecond,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		clu, err := cluster.New(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &node{m: m, ts: ts, clu: clu, addr: addrs[i]}
		t.Cleanup(func() {
			_ = clu.Close()
			_ = ts.Close()
		})
	}
	return nodes
}

// checkInOne serves ci through clu as a batch of one, the only way a check-in
// is served, and returns the item's result.
func checkInOne(clu *cluster.Cluster, ci server.CheckIn) server.CheckInResult {
	res, _ := clu.CheckInBatchBuf(&server.BatchBuf{CheckIns: []server.CheckIn{ci}}, server.RawItems{}, nil)
	return res[0]
}

// deviceOwnedBy finds a device ID the ring assigns to the wanted member.
func deviceOwnedBy(t *testing.T, r *hashring.Ring, owner string, tag string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("%s-%06d", tag, i)
		if r.Owner(id) == owner {
			return id
		}
	}
	t.Fatalf("no device hashes to %s", owner)
	return ""
}

// TestFederationTwoDaemonForward drives batched check-ins for a fleet
// spanning both owners through a single ingress daemon and asserts the
// requests are served with zero routing errors while the misrouted half is
// forwarded. Run under -race in CI, this is the federation concurrency
// test: connection goroutines on the ingress node call into the peer stream
// pool while the peer's connections apply them locally.
func TestFederationTwoDaemonForward(t *testing.T) {
	nodes := startFederation(t, 2, nil)
	a, b := nodes[0], nodes[1]

	ca := client.NewStream(a.addr)
	defer ca.Close()
	cb := client.NewStream(b.addr)
	defer cb.Close()
	// One job per node: assignments happen on whichever node owns the
	// checked-in device, so both schedulers need demand.
	for _, c := range []*client.StreamClient{ca, cb} {
		if _, err := c.RegisterJob(server.JobSpec{Name: "fed", Category: "General", DemandPerRound: 8, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
	}

	fleet := make([]server.CheckIn, 256)
	owners := map[string]int{}
	for i := range fleet {
		id := fmt.Sprintf("fed-dev-%04d", i)
		owners[a.clu.Ring().Owner(id)]++
		fleet[i] = server.CheckIn{DeviceID: id, CPU: 0.9, Mem: 0.9}
	}
	if len(owners) != 2 {
		t.Fatalf("test fleet spans %d owners, want 2 (%v)", len(owners), owners)
	}

	var reports []server.Report
	for lo := 0; lo < len(fleet); lo += 64 {
		results, err := ca.CheckInBatch(fleet[lo : lo+64])
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Error != "" {
				t.Fatalf("routing error for %s: %s", fleet[lo+i].DeviceID, res.Error)
			}
			if res.Assigned {
				reports = append(reports, server.Report{
					DeviceID: fleet[lo+i].DeviceID, JobID: res.JobID, OK: true, DurationSeconds: 30,
				})
			}
		}
	}
	if len(reports) != 16 {
		t.Fatalf("%d assignments, want 16 (8 per node)", len(reports))
	}
	// Before the reports land (which free the devices), a busy rejection
	// must cross the forward chain as the item's error: re-checking an
	// assigned, B-owned device through A answers ErrDeviceBusy's message.
	busyProbed := false
	for _, rep := range reports {
		if a.clu.Ring().Owner(rep.DeviceID) != b.addr {
			continue
		}
		res, err := ca.CheckInBatch([]server.CheckIn{{DeviceID: rep.DeviceID, CPU: 0.9, Mem: 0.9}})
		if err != nil || res[0].Error != server.ErrDeviceBusy.Error() {
			t.Fatalf("re-check-in of busy forwarded device: got %+v, %v; want item error %q", res, err, server.ErrDeviceBusy)
		}
		busyProbed = true
		break
	}
	if !busyProbed {
		t.Fatal("no B-owned assignment to probe busy semantics with")
	}

	rres, err := ca.ReportBatch(reports)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range rres {
		if rr.Error != "" {
			t.Fatalf("report %d rejected: %s", i, rr.Error)
		}
	}

	outA := a.clu.ClusterTelemetry().ClusterForwardsOut
	inB := b.clu.ClusterTelemetry().ClusterForwardsIn
	if outA == 0 || inB == 0 {
		t.Fatalf("no forwarding happened: A out=%d, B in=%d", outA, inB)
	}

	// The federation counters surface in /v1/metrics on both nodes.
	for _, nd := range []*node{a, b} {
		mt := nd.m.MetricsSnapshot()
		if mt.ClusterRingSize != 2 || mt.ClusterNodeID != nd.addr {
			t.Fatalf("metrics cluster identity wrong: %+v", mt.ClusterNodeID)
		}
		if mt.ClusterForwardsIn+mt.ClusterForwardsOut == 0 {
			t.Fatalf("node %s metrics report no forwards", nd.addr)
		}
		if mt.ClusterPeersUp != 1 || mt.ClusterPeersDown != 0 {
			t.Fatalf("node %s peer states: %v", nd.addr, mt.ClusterPeerStates)
		}
	}

}

// TestFederationBatchSplitMergeErrors asserts the split/fan-out/merge path
// preserves per-item errors at their original batch positions.
func TestFederationBatchSplitMergeErrors(t *testing.T) {
	nodes := startFederation(t, 2, nil)
	a, b := nodes[0], nodes[1]
	ca := client.NewStream(a.addr)
	defer ca.Close()

	devA := deviceOwnedBy(t, a.clu.Ring(), a.addr, "merge-a")
	devB := deviceOwnedBy(t, a.clu.Ring(), b.addr, "merge-b")

	// Index 1 is invalid (no device ID); indices 0 and 2 are the same
	// B-owned device, whose duplicate reservation must reject exactly one of
	// them at the owner; index 3 is served locally on A.
	batch := []server.CheckIn{
		{DeviceID: devB, CPU: 0.5, Mem: 0.5},
		{},
		{DeviceID: devB, CPU: 0.5, Mem: 0.5},
		{DeviceID: devA, CPU: 0.5, Mem: 0.5},
	}
	results, err := ca.CheckInBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Error != "" {
		t.Fatalf("first devB item rejected: %s", results[0].Error)
	}
	if !strings.Contains(results[1].Error, "device_id") {
		t.Fatalf("missing-ID item error = %q, want device_id complaint", results[1].Error)
	}
	if results[2].Error != server.ErrDeviceBusy.Error() {
		t.Fatalf("duplicate devB item error = %q, want %q", results[2].Error, server.ErrDeviceBusy)
	}
	if results[3].Error != "" {
		t.Fatalf("local devA item rejected: %s", results[3].Error)
	}
	outA := a.clu.ClusterTelemetry().ClusterForwardsOut
	if outA != 1 {
		t.Fatalf("batch should forward exactly one owner-group frame, forwarded %d", outA)
	}
}

// TestHopGuard asserts the loop guard: a frame that already carries the hop
// flag is served by its receiver even when the receiver's ring says a peer
// owns the device — it is never forwarded again, so two daemons with
// disagreeing rings cannot ping-pong a request.
func TestHopGuard(t *testing.T) {
	nodes := startFederation(t, 2, nil)
	a, b := nodes[0], nodes[1]

	// A device A owns, forwarded (hop set) to B — as a daemon with a stale
	// ring would. B must apply it locally.
	devA := deviceOwnedBy(t, a.clu.Ring(), a.addr, "hop")
	cb := client.NewStream(b.addr)
	defer cb.Close()
	payload, _ := (&server.CheckInBatchRequest{CheckIns: []server.CheckIn{{DeviceID: devA, CPU: 0.5, Mem: 0.5}}}).MarshalBinary()
	if err := cb.ForwardRaw(transport.OpCheckInBatch, payload, 0, nil); err != nil {
		t.Fatalf("hop-flagged check-in not served locally: %v", err)
	}
	tel := b.clu.ClusterTelemetry()
	inB, outB := tel.ClusterForwardsIn, tel.ClusterForwardsOut
	if inB != 1 {
		t.Fatalf("B forwards_in = %d, want 1", inB)
	}
	if outB != 0 {
		t.Fatalf("B re-forwarded a hop-flagged frame (forwards_out = %d)", outB)
	}
	inA := a.clu.ClusterTelemetry().ClusterForwardsIn
	if inA != 0 {
		t.Fatalf("A received a bounced frame (forwards_in = %d)", inA)
	}
	// B now owns the device state: its registry grew, A's did not.
	if got := b.m.MetricsSnapshot().KnownDevices; got != 1 {
		t.Fatalf("B knows %d devices, want 1", got)
	}
	if got := a.m.MetricsSnapshot().KnownDevices; got != 0 {
		t.Fatalf("A knows %d devices, want 0", got)
	}
}

// TestHopFlagRejectedOnNonServingOp pins the frame-level contract: the hop
// flag is only legal on the two serving opcodes; anything else is a typed
// invalid rejection, not a crash or a hang.
func TestHopFlagRejectedOnNonServingOp(t *testing.T) {
	nodes := startFederation(t, 1, nil)
	conn, err := net.Dial("tcp", nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := transport.WriteFrame(bw, transport.Version2, transport.OpMetrics|transport.HopFlag, 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr, err := transport.ReadFrame(bufio.NewReader(conn), 1<<20, transport.MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Op != transport.OpError || fr.ID != 7 {
		t.Fatalf("got op %#x id %d, want OpError id 7", fr.Op, fr.ID)
	}
	if !strings.Contains(string(fr.Payload), "hop flag") {
		t.Fatalf("error payload %q does not name the hop flag", fr.Payload)
	}
}

// fakePeer is an injectable PeerClient: forwards block until released and
// can be made to fail with a chosen error, ping results are switchable, and
// teardown order is observable.
type fakePeer struct {
	pingErr  atomic.Bool // true -> Ping fails
	block    chan struct{}
	forwards atomic.Int64
	closed   atomic.Bool
	fwdErr   atomic.Value // error returned by forwards (nil = success)
	echo     atomic.Bool  // batch check-in replies carry "echo:<device>" in Error
	short    atomic.Bool  // batch check-in replies are one result short

	mu    sync.Mutex
	sizes []int // payload size of every forward that reached the peer
}

func newFakePeer() *fakePeer { return &fakePeer{block: make(chan struct{})} }

func (f *fakePeer) failForwardsWith(err error) { f.fwdErr.Store(&err) }

func (f *fakePeer) forwardErr() error {
	if p, ok := f.fwdErr.Load().(*error); ok {
		return *p
	}
	return nil
}

func (f *fakePeer) Ping() error {
	if f.pingErr.Load() {
		return errors.New("fake: peer unreachable")
	}
	return nil
}

// ForwardRaw answers a hop the way an owner would: it decodes the hop payload,
// records its size, and replies as on the wire with one result per item:
// zero results by default, an echo of the device ID in Error when echo is
// set, one result too few when short is set.
func (f *fakePeer) ForwardRaw(op byte, payload []byte, trace uint64, dec func(reply []byte) error) error {
	f.forwards.Add(1)
	<-f.block
	if err := f.forwardErr(); err != nil {
		return err
	}
	f.mu.Lock()
	f.sizes = append(f.sizes, len(payload))
	f.mu.Unlock()
	var reply []byte
	switch op {
	case transport.OpCheckInBatch:
		var req server.CheckInBatchRequest
		if err := req.UnmarshalBinary(payload); err != nil {
			return err
		}
		resp := server.CheckInBatchResponse{Results: make([]server.CheckInResult, len(req.CheckIns))}
		for i, ci := range req.CheckIns {
			if f.echo.Load() {
				resp.Results[i].Error = "echo:" + ci.DeviceID
			}
		}
		if f.short.Load() {
			resp.Results = resp.Results[1:]
		}
		reply, _ = resp.MarshalBinary()
	case transport.OpReportBatch:
		var req server.ReportBatchRequest
		if err := req.UnmarshalBinary(payload); err != nil {
			return err
		}
		resp := server.ReportBatchResponse{Results: make([]server.ReportResult, len(req.Reports))}
		reply, _ = resp.MarshalBinary()
	default:
		return fmt.Errorf("fake: forward of opcode %#x", op)
	}
	if dec == nil {
		return nil
	}
	return dec(reply)
}

func (f *fakePeer) Close() error {
	f.closed.Store(true)
	return nil
}

// TestDrainOrdering pins the federation shutdown sequence: BeginDrain stops
// new forwards (they local-apply instead), Close waits for the in-flight
// forwarded frame to finish, and only then are the peer clients closed.
func TestDrainOrdering(t *testing.T) {
	m := server.NewManager(server.Config{})
	fake := newFakePeer()
	clu, err := cluster.New(m, cluster.Config{
		SelfID:         "self",
		Peers:          []string{"self", "peer-1"},
		HealthInterval: time.Hour, // keep the health loop out of the picture
		Dial:           func(addr string) cluster.PeerClient { return fake },
	})
	if err != nil {
		t.Fatal(err)
	}
	devPeer := deviceOwnedBy(t, clu.Ring(), "peer-1", "drain")

	// An in-flight forward, parked inside the fake peer.
	fwdDone := make(chan struct{})
	go func() {
		defer close(fwdDone)
		_ = checkInOne(clu, server.CheckIn{DeviceID: devPeer, CPU: 0.5, Mem: 0.5})
	}()
	waitFor(t, func() bool { return fake.forwards.Load() == 1 })

	clu.BeginDrain()
	// New requests for peer-owned devices no longer forward: applied
	// locally, counted as fallbacks.
	devPeer2 := deviceOwnedBy(t, clu.Ring(), "peer-1", "drain2")
	if res := checkInOne(clu, server.CheckIn{DeviceID: devPeer2, CPU: 0.5, Mem: 0.5}); res.Error != "" {
		t.Fatalf("drained check-in must local-apply, got %q", res.Error)
	}
	if got := fake.forwards.Load(); got != 1 {
		t.Fatalf("a forward escaped after BeginDrain (%d)", got)
	}
	fallbacks := clu.ClusterTelemetry().ClusterLocalFallbacks
	if fallbacks == 0 {
		t.Fatal("drained forward not counted as local fallback")
	}

	// Close must wait for the in-flight forward and must not have closed the
	// peer client while that frame is still out.
	closeDone := make(chan struct{})
	go func() {
		defer close(closeDone)
		_ = clu.Close()
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a forwarded frame was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	if fake.closed.Load() {
		t.Fatal("peer client closed before in-flight forwards drained")
	}
	close(fake.block)
	<-fwdDone
	select {
	case <-closeDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned after the in-flight forward drained")
	}
	if !fake.closed.Load() {
		t.Fatal("peer client not closed by Close")
	}
	// Detached: requests after Close stay local even for peer-owned devices.
	if m.MetricsSnapshot().ClusterRingSize != 0 {
		t.Fatal("cluster telemetry still attached after Close")
	}
}

// TestHealthLoopDownUp drives a peer down (failed pings past FailAfter) and
// back up, asserting routing degrades to local-apply and recovers.
func TestHealthLoopDownUp(t *testing.T) {
	m := server.NewManager(server.Config{})
	fake := newFakePeer()
	close(fake.block) // forwards return immediately
	clu, err := cluster.New(m, cluster.Config{
		SelfID:         "self",
		Peers:          []string{"self", "peer-1"},
		HealthInterval: 10 * time.Millisecond,
		FailAfter:      2,
		Dial:           func(addr string) cluster.PeerClient { return fake },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	devPeer := deviceOwnedBy(t, clu.Ring(), "peer-1", "health")

	if res := checkInOne(clu, server.CheckIn{DeviceID: devPeer, CPU: 0.5, Mem: 0.5}); res.Error != "" {
		t.Fatal(res.Error)
	}
	if fake.forwards.Load() != 1 {
		t.Fatal("healthy peer must receive the forward")
	}

	fake.pingErr.Store(true)
	waitFor(t, func() bool { return clu.ClusterTelemetry().ClusterPeerStates["peer-1"] == "down" })
	before := fake.forwards.Load()
	if res := checkInOne(clu, server.CheckIn{DeviceID: devPeer, CPU: 0.5, Mem: 0.5}); res.Error != "" {
		t.Fatalf("down-peer check-in must local-apply, got %q", res.Error)
	}
	if fake.forwards.Load() != before {
		t.Fatal("forwarded to a down peer")
	}
	fallbacks := clu.ClusterTelemetry().ClusterLocalFallbacks
	if fallbacks == 0 {
		t.Fatal("down-peer fallback not counted")
	}

	fake.pingErr.Store(false)
	waitFor(t, func() bool { return clu.ClusterTelemetry().ClusterPeerStates["peer-1"] == "up" })
	if res := checkInOne(clu, server.CheckIn{DeviceID: devPeer, CPU: 0.5, Mem: 0.5}); res.Error != "" {
		t.Fatal(res.Error)
	}
	if fake.forwards.Load() != before+1 {
		t.Fatal("recovered peer must receive forwards again")
	}
}

// TestSingleMemberCluster: a ring of one routes everything locally and
// never forwards.
func TestSingleMemberCluster(t *testing.T) {
	nodes := startFederation(t, 1, nil)
	c := client.NewStream(nodes[0].addr)
	defer c.Close()
	results, err := c.CheckInBatch([]server.CheckIn{
		{DeviceID: "solo-1", CPU: 0.5, Mem: 0.5},
		{DeviceID: "solo-2", CPU: 0.5, Mem: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("item %d: %s", i, res.Error)
		}
	}
	tel := nodes[0].clu.ClusterTelemetry()
	in, out := tel.ClusterForwardsIn, tel.ClusterForwardsOut
	if in != 0 || out != 0 {
		t.Fatalf("single-member cluster forwarded (in=%d out=%d)", in, out)
	}
}

// TestSelfIDMustBeInPeers pins the membership contract: a non-empty peers
// list that lacks the node's own ID is a configuration error (it would put
// a phantom member on the ring), not a silent near-miss.
func TestSelfIDMustBeInPeers(t *testing.T) {
	m := server.NewManager(server.Config{})
	_, err := cluster.New(m, cluster.Config{
		SelfID: ":8081",
		Peers:  []string{"10.0.0.1:8081", "10.0.0.2:8081"},
		Dial:   func(string) cluster.PeerClient { return newFakePeer() },
	})
	if err == nil || !strings.Contains(err.Error(), "not in the peers list") {
		t.Fatalf("mismatched self ID must fail construction, got %v", err)
	}
	// And the manager must be left untouched (nothing attached).
	if m.MetricsSnapshot().ClusterRingSize != 0 {
		t.Fatal("failed construction left telemetry attached")
	}
}

// TestForwardFailureSemantics pins the double-apply guard: only a forward
// that provably never left this node (client.NotSentError) falls back to
// local apply; an ambiguous failure surfaces as the item's error with no
// local side effects.
func TestForwardFailureSemantics(t *testing.T) {
	m := server.NewManager(server.Config{})
	fake := newFakePeer()
	close(fake.block)
	clu, err := cluster.New(m, cluster.Config{
		SelfID:         "self",
		Peers:          []string{"self", "peer-1"},
		HealthInterval: time.Hour,
		Dial:           func(string) cluster.PeerClient { return fake },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	devPeer := deviceOwnedBy(t, clu.Ring(), "peer-1", "fail")

	// Ambiguous failure (e.g. timeout): an item error, NOT applied locally —
	// the owner may have already applied it.
	fake.failForwardsWith(errors.New("fake: request timed out"))
	if res := checkInOne(clu, server.CheckIn{DeviceID: devPeer, CPU: 0.5, Mem: 0.5}); !strings.Contains(res.Error, "forward to owner failed") {
		t.Fatalf("ambiguous forward failure item error = %q", res.Error)
	}
	if got := m.MetricsSnapshot().KnownDevices; got != 0 {
		t.Fatalf("ambiguous failure applied locally (%d devices registered)", got)
	}

	// Provably-unsent failure: safe to apply locally. It is a clean,
	// caller-invisible fallback, so it counts in local_fallbacks but NOT in
	// forward_errors (only ambiguous outcomes do).
	fake.failForwardsWith(&client.NotSentError{Err: errors.New("fake: dial refused")})
	if res := checkInOne(clu, server.CheckIn{DeviceID: devPeer, CPU: 0.5, Mem: 0.5}); res.Error != "" {
		t.Fatalf("unsent forward must local-apply, got %q", res.Error)
	}
	if got := m.MetricsSnapshot().KnownDevices; got != 1 {
		t.Fatalf("unsent forward not applied locally (%d devices)", got)
	}
	tel := clu.ClusterTelemetry()
	fwdErrs, fallbacks := tel.ClusterForwardErrors, tel.ClusterLocalFallbacks
	if fwdErrs != 1 || fallbacks != 1 {
		t.Fatalf("counters: %d forward errors (want 1), %d fallbacks (want 1)", fwdErrs, fallbacks)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

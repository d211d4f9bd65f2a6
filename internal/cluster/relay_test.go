package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/hashring"
	"venn/internal/server"
	"venn/internal/transport"
)

// decodedBatch encodes cis as a v2 batch payload and decodes it into a fresh
// BatchBuf: what a stream connection holds when it calls the router.
func decodedBatch(t *testing.T, cis []server.CheckIn) (*server.BatchBuf, server.RawItems) {
	t.Helper()
	payload, err := (&server.CheckInBatchRequest{CheckIns: cis}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := new(server.BatchBuf)
	if err := b.DecodeCheckIns(payload); err != nil {
		t.Fatal(err)
	}
	return b, server.RawItems{Data: payload, Bounds: b.Bounds}
}

// fleetOf names n devices tag-00 … and reports how many the ring gives owner.
func fleetOf(r *hashring.Ring, tag string, n int, owner string) (cis []server.CheckIn, owned int) {
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-%02d", tag, i)
		cis = append(cis, server.CheckIn{DeviceID: id, CPU: 0.5, Mem: 0.5})
		if r.Owner(id) == owner {
			owned++
		}
	}
	return cis, owned
}

// TestRelayCoalescesIntoContributorsSlots holds a fake owner's first reply
// while eight batches contribute to its relay: the first is a commit round of
// its own, the other seven coalesce into the second, and the one reply to
// that round is decoded straight into seven different BatchBufs — every
// contributor reads its own items' results, in item order, at exactly the
// forwarded indices. The three failure verdicts then fill the same indices
// and no others.
func TestRelayCoalescesIntoContributorsSlots(t *testing.T) {
	m := server.NewManager(server.Config{})
	fake := newFakePeer()
	fake.echo.Store(true)
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

	// check asserts one batch's merged results: forwarded items answer
	// wantPeer, local ones are accepted.
	check := func(name string, cis []server.CheckIn, results []server.CheckInResult, wantPeer func(id string) string) {
		t.Helper()
		if len(results) != len(cis) {
			t.Fatalf("%s: %d results for %d items", name, len(results), len(cis))
		}
		for i, ci := range cis {
			want := ""
			if clu.Ring().Owner(ci.DeviceID) == "peer-1" {
				want = wantPeer(ci.DeviceID)
			}
			if got := results[i].Error; got != want && !(want != "" && strings.Contains(got, want)) {
				t.Errorf("%s: item %d (%s): error %q, want %q", name, i, ci.DeviceID, got, want)
			}
		}
	}
	echo := func(id string) string { return "echo:" + id }
	known := func() int { return int(m.MetricsSnapshot().KnownDevices) }

	const conns, per = 8, 16
	var batches [conns][]server.CheckIn
	var results [conns][]server.CheckInResult
	local := 0
	for k := range batches {
		var remote int
		batches[k], remote = fleetOf(clu.Ring(), fmt.Sprintf("co%d", k), per, "peer-1")
		if remote == 0 || remote == per {
			t.Fatalf("batch %d does not span both owners (%d of %d on the peer)", k, remote, per)
		}
		local += per - remote
	}
	var wg sync.WaitGroup
	contribute := func(k int) {
		b, raw := decodedBatch(t, batches[k])
		wg.Add(1)
		go func() {
			defer wg.Done()
			var forwarded bool
			if results[k], forwarded = clu.CheckInBatchBuf(b, raw, nil); !forwarded {
				t.Errorf("batch %d: not reported as forwarded", k)
			}
		}()
	}
	contribute(0)
	waitFor(t, func() bool { return fake.forwards.Load() == 1 }) // round 1 is parked in the fake
	for k := 1; k < conns; k++ {
		contribute(k)
	}
	// A batch serves its local half right after contributing, so once every
	// local device is registered every group is in the relay.
	waitFor(t, func() bool { return known() == local })
	close(fake.block)
	wg.Wait()
	for k := range batches {
		check(fmt.Sprintf("batch %d", k), batches[k], results[k], echo)
	}
	if tel := clu.ClusterTelemetry(); tel.ClusterForwardsOut != 2 || tel.ClusterForwardErrors != 0 || tel.ClusterLocalFallbacks != 0 || fake.forwards.Load() != 2 {
		t.Fatalf("8 batches over a held reply: %d hop frames (%d reached the peer), %d errors, %d fallbacks; want 2 commit rounds, clean",
			tel.ClusterForwardsOut, fake.forwards.Load(), tel.ClusterForwardErrors, tel.ClusterLocalFallbacks)
	}

	// The failure verdicts, one batch each.
	run := func(tag string) ([]server.CheckIn, []server.CheckInResult, int) {
		cis, remote := fleetOf(clu.Ring(), tag, per, "peer-1")
		b, raw := decodedBatch(t, cis)
		res, _ := clu.CheckInBatchBuf(b, raw, nil)
		return cis, res, remote
	}
	base := known()

	fake.failForwardsWith(&client.StreamError{Code: server.CodeBusy, Msg: "owner says no"})
	cis, res, remote := run("typed")
	check("typed rejection", cis, res, func(string) string { return "owner says no" })
	if got := known(); got != base+per-remote {
		t.Errorf("typed rejection: %d devices registered here, want only the %d local ones", got-base, per-remote)
	}
	base += per - remote

	fake.failForwardsWith(&client.NotSentError{Err: errors.New("fake: dial refused")})
	cis, res, _ = run("unsent")
	check("local fallback", cis, res, func(string) string { return "" })
	if got := known(); got != base+per {
		t.Errorf("local fallback: %d devices registered here, want all %d", got-base, per)
	}
	base += per

	fake.failForwardsWith(nil)
	fake.short.Store(true)
	cis, res, remote = run("short")
	check("short reply", cis, res, func(string) string { return "forward to owner failed" })
	if got := known(); got != base+per-remote {
		t.Errorf("short reply: %d devices registered here, want only the %d local ones", got-base, per-remote)
	}
	if tel := clu.ClusterTelemetry(); tel.ClusterForwardErrors != 1 || tel.ClusterLocalFallbacks != 1 {
		t.Errorf("after the three verdicts: %d forward errors, %d fallbacks; want 1 (short reply) and 1 (unsent)", tel.ClusterForwardErrors, tel.ClusterLocalFallbacks)
	}
}

// TestForwardedResultsOutliveReplyBuffer is the lifetime check of the relay's
// decode-into-slots: a forwarded result's strings are read out of the owner's
// reply, a pooled buffer recycled the moment the decoder returns (and, built
// with -tags poolcheck, overwritten with 0xA5 then), so they must be copies.
// It also pins what BatchBuf.Release gives up: under poolcheck the router
// scratch and the merged slots read as poison afterwards.
func TestForwardedResultsOutliveReplyBuffer(t *testing.T) {
	nodes := startFederation(t, 2, func(cfg *cluster.Config) { cfg.HealthInterval = time.Hour })
	a, owner := nodes[0], nodes[1]
	const demand = 4
	if _, err := owner.m.RegisterJob(server.JobSpec{Name: "keep", Category: "General", DemandPerRound: demand + 1, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	// What an assignment of that job reads like when no buffer is involved.
	ref := owner.m.CheckInBatch([]server.CheckIn{{DeviceID: deviceOwnedBy(t, a.clu.Ring(), owner.addr, "ref"), CPU: 0.9, Mem: 0.9}})[0]
	if !ref.Assigned || ref.JobName != "keep" {
		t.Fatalf("reference assignment: %+v", ref)
	}

	fleet := make([]server.CheckIn, 64)
	for i := range fleet {
		fleet[i] = server.CheckIn{DeviceID: fmt.Sprintf("outlive-%02d", i), CPU: 0.9, Mem: 0.9}
	}
	b, raw := decodedBatch(t, fleet)
	first, _ := a.clu.CheckInBatchBuf(b, raw, nil)
	first = append([]server.CheckInResult(nil), first...) // the slots are reused below; the strings are what is under test
	second, _ := a.clu.CheckInBatchBuf(b, raw, nil)       // the assigned devices are busy now
	// Churn the pooled buffers with other forwarded traffic.
	other, otherRaw := decodedBatch(t, fleet[:8])
	for i := 0; i < 8; i++ {
		a.clu.CheckInBatchBuf(other, otherRaw, nil)
	}

	assigned := 0
	for i, res := range first {
		if res.Error != "" {
			t.Fatalf("%s: %s", fleet[i].DeviceID, res.Error)
		}
		if !res.Assigned {
			continue
		}
		assigned++
		if a.clu.Ring().Owner(fleet[i].DeviceID) != owner.addr {
			t.Fatalf("%s assigned on the node without a job", fleet[i].DeviceID)
		}
		if res.JobName != ref.JobName || res.JobID != ref.JobID {
			t.Errorf("%s: forwarded assignment reads %+v, want job %q", fleet[i].DeviceID, res.Assignment, ref.JobName)
		}
		if got, want := second[i].Error, server.ErrDeviceBusy.Error(); got != want {
			t.Errorf("%s: second check-in error %q, want %q", fleet[i].DeviceID, got, want)
		}
	}
	if assigned != demand {
		t.Fatalf("%d forwarded check-ins assigned, want %d", assigned, demand)
	}

	b.Release()
	if !server.Poolcheck {
		return
	}
	for name, s := range map[string][]int32{"Owner": b.Owner, "Order": b.Order, "Start": b.Start} {
		for i, v := range s {
			if v >= 0 {
				t.Fatalf("released BatchBuf: %s[%d] = %d, not poisoned", name, i, v)
			}
		}
	}
	for i := range second {
		if !strings.Contains(second[i].Error, "poolcheck") {
			t.Fatalf("released BatchBuf: result slot %d still reads %+v", i, second[i])
		}
	}
	if sub := b.Sub(); len(sub.CheckIns) == 0 || !strings.Contains(sub.CheckIns[0].DeviceID, "poolcheck") {
		t.Fatalf("released BatchBuf: the gathered local half still reads %+v", sub.CheckIns)
	}
}

// TestDownOwnerFallsBackOncePerBatch: in a three-member ring with one member
// down, a batch spanning all three forwards one group, serves the down
// member's items here with its own, and counts one local fallback — per
// batch, not per item — whether the batch arrived encoded (stream) or not
// (HTTP ingress, encoded into the relay).
func TestDownOwnerFallsBackOncePerBatch(t *testing.T) {
	m := server.NewManager(server.Config{})
	fakes := map[string]*fakePeer{"peer-1": newFakePeer(), "peer-2": newFakePeer()}
	for _, f := range fakes {
		close(f.block)
	}
	fakes["peer-2"].pingErr.Store(true)
	clu, err := cluster.New(m, cluster.Config{
		SelfID:         "self",
		Peers:          []string{"self", "peer-1", "peer-2"},
		HealthInterval: 5 * time.Millisecond,
		FailAfter:      1,
		Dial:           func(addr string) cluster.PeerClient { return fakes[addr] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	waitFor(t, func() bool { return clu.ClusterTelemetry().ClusterPeerStates["peer-2"] == "down" })

	for round, tag := range []string{"down-raw", "down-encoded"} {
		cis, up := fleetOf(clu.Ring(), tag, 48, "peer-1")
		_, down := fleetOf(clu.Ring(), tag, 48, "peer-2")
		if up == 0 || down < 2 || up+down == len(cis) {
			t.Fatalf("%s does not span all three owners: %d on peer-1, %d on peer-2", tag, up, down)
		}
		known := int(m.MetricsSnapshot().KnownDevices)
		var res []server.CheckInResult
		if round == 0 {
			b, raw := decodedBatch(t, cis)
			res, _ = clu.CheckInBatchBuf(b, raw, nil)
		} else {
			res, _ = clu.CheckInBatchRaw(cis, server.RawItems{}, nil)
		}
		for i := range res {
			if res[i].Error != "" {
				t.Errorf("%s item %d: %s", tag, i, res[i].Error)
			}
		}
		if got := int(m.MetricsSnapshot().KnownDevices) - known; got != len(cis)-up {
			t.Errorf("%s: %d devices served here, want %d (own and the down member's)", tag, got, len(cis)-up)
		}
		if tel := clu.ClusterTelemetry(); tel.ClusterForwardsOut != int64(round+1) || tel.ClusterForwardErrors != 0 || tel.ClusterLocalFallbacks != int64(round+1) {
			t.Errorf("%s: %d hop frames, %d errors, %d fallbacks; want %d, 0, %d", tag, tel.ClusterForwardsOut, tel.ClusterForwardErrors, tel.ClusterLocalFallbacks, round+1, round+1)
		}
	}
	if got := fakes["peer-2"].forwards.Load(); got != 0 {
		t.Errorf("%d forwards reached the down peer", got)
	}
}

// TestRelayKeepsHopsWithinFrameLimit: the owner's frame limit (the transport
// default, server.MaxBatch KiB, a trace context included) bounds every hop.
// A group that would push a pending batch past it makes the pending batch
// leave first and travels in a frame of its own; a group past the limit on
// its own is answered too large on every item and never sent.
func TestRelayKeepsHopsWithinFrameLimit(t *testing.T) {
	m := server.NewManager(server.Config{})
	fake := newFakePeer()
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
	known := func() int { return int(m.MetricsSnapshot().KnownDevices) }

	// wide returns n peer-owned check-ins whose IDs make each item 1,125 wire
	// bytes, then one local check-in: it registers here once the batch has
	// contributed its remote group.
	pad, seq := strings.Repeat("x", 1100), 0
	wide := func(n int) []server.CheckIn {
		var cis []server.CheckIn
		for ; len(cis) < n; seq++ {
			if id := fmt.Sprintf("%s-%06d", pad, seq); clu.Ring().Owner(id) == "peer-1" {
				cis = append(cis, server.CheckIn{DeviceID: id, CPU: 0.5, Mem: 0.5})
			}
		}
		seq++
		return append(cis, server.CheckIn{DeviceID: deviceOwnedBy(t, clu.Ring(), "self", fmt.Sprintf("limit-%d", seq)), CPU: 0.5, Mem: 0.5})
	}

	// Round 1 parks in the fake; 100 items (112 KB) then wait behind it, and
	// a 7,400-item group (8.3 MB) arrives: together they would be 8.4 MB.
	small, remote := fleetOf(clu.Ring(), "limit-small", 16, "peer-1")
	batches := [][]server.CheckIn{small, wide(100), wide(7400)}
	local := []int{len(small) - remote, 1, 1}
	results := make([][]server.CheckInResult, len(batches))
	var wg sync.WaitGroup
	want := 0
	for k, cis := range batches {
		b, raw := decodedBatch(t, cis)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k], _ = clu.CheckInBatchBuf(b, raw, nil)
		}()
		want += local[k]
		if k == 0 {
			waitFor(t, func() bool { return fake.forwards.Load() == 1 })
		}
		waitFor(t, func() bool { return known() == want })
	}
	close(fake.block)
	wg.Wait()
	for k := range batches {
		for i, res := range results[k] {
			if res.Error != "" {
				t.Fatalf("batch %d item %d: %s", k, i, res.Error)
			}
		}
	}
	fake.mu.Lock()
	sizes := slices.Clone(fake.sizes)
	fake.mu.Unlock()
	if len(sizes) != 3 {
		t.Errorf("%d hop frames, want 3 (round 1, the pending batch, the big group)", len(sizes))
	}
	for _, n := range sizes {
		if n+transport.TraceContextSize > server.MaxBatch*1024 {
			t.Errorf("hop payload of %d bytes: with a trace context it is past the owner's frame limit of %d", n, server.MaxBatch*1024)
		}
	}

	// A group the limit cannot take at all, as HTTP ingress can produce it:
	// no raw bytes, each item encoded into the relay.
	cis := wide(7460)
	res, _ := clu.CheckInBatchRaw(cis, server.RawItems{}, nil)
	for i, r := range res[:len(res)-1] {
		if !strings.Contains(r.Error, "frame limit") {
			t.Fatalf("item %d of an oversized group: error %q, want the frame limit", i, r.Error)
		}
	}
	if r := res[len(res)-1]; r.Error != "" {
		t.Errorf("the local item of an oversized batch: %s", r.Error)
	}
	if got := fake.forwards.Load(); got != 3 {
		t.Errorf("the oversized group reached the peer (%d forwards, want 3)", got)
	}
	if tel := clu.ClusterTelemetry(); tel.ClusterForwardErrors != 0 || tel.ClusterLocalFallbacks != 0 {
		t.Errorf("%d forward errors, %d fallbacks; want none", tel.ClusterForwardErrors, tel.ClusterLocalFallbacks)
	}
}

// postCheckIns POSTs cis to h's JSON batch route and decodes the results.
func postCheckIns(h http.Handler, cis []server.CheckIn) ([]server.CheckInResult, error) {
	body, err := server.CheckInBatchRequest{CheckIns: cis}.MarshalJSON()
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/checkin/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/checkin/batch: %d %s", rec.Code, rec.Body)
	}
	var resp server.CheckInBatchResponse
	if err := resp.UnmarshalJSON(rec.Body.Bytes()); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// TestHTTPIngressRidesTheRelay: a JSON batch has no wire bytes to splice, so
// its remote groups are encoded into the owner's relay. Through a real
// two-member federation the results equal a direct run on one daemon and the
// hop bytes are counted; behind a held hop, eight concurrent HTTP batches
// coalesce the way stream batches do.
func TestHTTPIngressRidesTheRelay(t *testing.T) {
	nodes := startFederation(t, 2, func(cfg *cluster.Config) { cfg.HealthInterval = time.Hour })
	a, b := nodes[0], nodes[1]
	job := server.JobSpec{Name: "http", Category: "General", DemandPerRound: 6, Rounds: 1}
	direct := server.NewManager(server.Config{})
	for _, m := range []*server.Manager{b.m, direct} {
		if _, err := m.RegisterJob(job); err != nil {
			t.Fatal(err)
		}
	}
	fleet := make([]server.CheckIn, 24)
	for i := range fleet {
		fleet[i] = server.CheckIn{DeviceID: deviceOwnedBy(t, a.clu.Ring(), b.addr, fmt.Sprintf("http-%d", i)), CPU: 0.9, Mem: 0.9}
	}
	got, err := postCheckIns(server.Handler(a.m), fleet)
	if err != nil {
		t.Fatal(err)
	}
	want, err := postCheckIns(server.Handler(direct), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("through the federation:\n%+v\ndirect:\n%+v", got, want)
	}
	if tel := a.clu.ClusterTelemetry(); tel.ClusterForwardsOut != 1 || tel.ForwardBytesOut == 0 || tel.ClusterForwardErrors != 0 {
		t.Errorf("ingress: %d hop frames, %d hop bytes, %d errors; want 1, > 0, 0", tel.ClusterForwardsOut, tel.ForwardBytesOut, tel.ClusterForwardErrors)
	}

	m := server.NewManager(server.Config{})
	fake := newFakePeer()
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
	h := server.Handler(m)
	const posts, per = 9, 16
	var wg sync.WaitGroup
	local := 0
	for k := 0; k < posts; k++ {
		cis, remote := fleetOf(clu.Ring(), fmt.Sprintf("hc%d", k), per, "peer-1")
		if remote == 0 || remote == per {
			t.Fatalf("batch %d does not span both owners (%d of %d on the peer)", k, remote, per)
		}
		local += per - remote
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := postCheckIns(h, cis)
			if err != nil {
				t.Error(err)
				return
			}
			for i, r := range res {
				if r.Error != "" {
					t.Errorf("batch %d item %d: %s", k, i, r.Error)
				}
			}
		}()
		if k == 0 {
			waitFor(t, func() bool { return fake.forwards.Load() == 1 }) // the held hop
		}
	}
	// Every batch serves its local half after contributing: once all local
	// devices are known, every remote group is in the relay.
	waitFor(t, func() bool { return int(m.MetricsSnapshot().KnownDevices) == local })
	close(fake.block)
	wg.Wait()
	if frames := fake.forwards.Load() - 1; frames > 2 {
		t.Errorf("8 HTTP batches behind a held hop left in %d hop frames, want at most 2", frames)
	}
	if tel := clu.ClusterTelemetry(); tel.ClusterForwardErrors != 0 || tel.ClusterForwardsOut != fake.forwards.Load() {
		t.Errorf("%d hop frames counted for %d sent, %d errors", tel.ClusterForwardsOut, fake.forwards.Load(), tel.ClusterForwardErrors)
	}
}

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

// TestOneHopFramePerBatchOwner holds two fake owners' replies while eight
// batches split across them and this node: each batch sends one hop frame to
// each owner, all sixteen are at the owners at once, and each reply is
// decoded into its own batch's slots only — every batch reads its own items'
// results, in item order, at exactly the forwarded indices. The three
// failure verdicts then fill the same indices and no others.
func TestOneHopFramePerBatchOwner(t *testing.T) {
	m := server.NewManager(server.Config{})
	fakes := map[string]*fakePeer{"peer-1": newFakePeer(), "peer-2": newFakePeer()}
	for _, f := range fakes {
		f.echo.Store(true)
	}
	clu, err := cluster.New(m, cluster.Config{
		SelfID:         "self",
		Peers:          []string{"self", "peer-1", "peer-2"},
		HealthInterval: time.Hour,
		Dial:           func(addr string) cluster.PeerClient { return fakes[addr] },
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
			if clu.Ring().Owner(ci.DeviceID) != "self" {
				want = wantPeer(ci.DeviceID)
			}
			if got := results[i].Error; got != want && !(want != "" && strings.Contains(got, want)) {
				t.Errorf("%s: item %d (%s): error %q, want %q", name, i, ci.DeviceID, got, want)
			}
		}
	}
	echo := func(id string) string { return "echo:" + id }
	known := func() int { return int(m.MetricsSnapshot().KnownDevices) }
	// fleet is a batch of per check-ins spanning all three members, and how
	// many of them are served here.
	const per = 32
	fleet := func(tag string) (cis []server.CheckIn, local int) {
		cis, local = fleetOf(clu.Ring(), tag, per, "self")
		for owner := range fakes {
			if _, n := fleetOf(clu.Ring(), tag, per, owner); n == 0 {
				t.Fatalf("%s has no item on %s", tag, owner)
			}
		}
		if local == 0 {
			t.Fatalf("%s has no item on self", tag)
		}
		return cis, local
	}
	forwards := func() (n int64) {
		for _, f := range fakes {
			n += f.forwards.Load()
		}
		return n
	}

	const conns = 8
	var batches [conns][]server.CheckIn
	var results [conns][]server.CheckInResult
	for k := range batches {
		batches[k], _ = fleet(fmt.Sprintf("co%d", k))
	}
	// Released on every path, so that a failed wait does not leave Close
	// waiting on parked hops.
	var wg sync.WaitGroup
	defer wg.Wait()
	release := sync.OnceFunc(func() {
		for _, f := range fakes {
			close(f.block)
		}
	})
	defer release()
	for k := range batches {
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
	waitFor(t, func() bool { return forwards() == 2*conns }) // every hop is parked in a fake
	release()
	wg.Wait()
	for k := range batches {
		check(fmt.Sprintf("batch %d", k), batches[k], results[k], echo)
	}
	for owner, f := range fakes {
		if got := f.forwards.Load(); got != conns {
			t.Errorf("%s: %d hop frames, want one per batch (%d)", owner, got, conns)
		}
	}
	if tel := clu.ClusterTelemetry(); tel.ClusterForwardsOut != 2*conns || tel.ClusterForwardErrors != 0 || tel.ClusterLocalFallbacks != 0 {
		t.Fatalf("8 batches over held replies: %d hop frames, %d errors, %d fallbacks; want one frame per batch and owner, clean",
			tel.ClusterForwardsOut, tel.ClusterForwardErrors, tel.ClusterLocalFallbacks)
	}

	// The failure verdicts, one batch each, from both owners.
	run := func(tag string) ([]server.CheckIn, []server.CheckInResult, int) {
		cis, local := fleet(tag)
		b, raw := decodedBatch(t, cis)
		res, _ := clu.CheckInBatchBuf(b, raw, nil)
		return cis, res, local
	}
	failWith := func(err error) {
		for _, f := range fakes {
			f.failForwardsWith(err)
		}
	}
	base := known()

	failWith(&client.StreamError{Code: server.CodeInvalid, Msg: "owner says no"})
	cis, res, local := run("typed")
	check("typed rejection", cis, res, func(string) string { return "owner says no" })
	if got := known(); got != base+local {
		t.Errorf("typed rejection: %d devices registered here, want only the %d local ones", got-base, local)
	}
	base += local

	failWith(&client.NotSentError{Err: errors.New("fake: dial refused")})
	cis, res, _ = run("unsent")
	check("local fallback", cis, res, func(string) string { return "" })
	if got := known(); got != base+per {
		t.Errorf("local fallback: %d devices registered here, want all %d", got-base, per)
	}
	base += per

	failWith(nil)
	for _, f := range fakes {
		f.short.Store(true)
	}
	cis, res, local = run("short")
	check("short reply", cis, res, func(string) string { return "forward to owner failed" })
	if got := known(); got != base+local {
		t.Errorf("short reply: %d devices registered here, want only the %d local ones", got-base, local)
	}
	if tel := clu.ClusterTelemetry(); tel.ClusterForwardErrors != 2 || tel.ClusterLocalFallbacks != 2 {
		t.Errorf("after the three verdicts: %d forward errors, %d fallbacks; want 2 (short replies) and 2 (unsent)", tel.ClusterForwardErrors, tel.ClusterLocalFallbacks)
	}
}

// TestForwardedResultsOutliveReplyBuffer is the lifetime check of the hop's
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
	ref := owner.m.CheckInBatchBuf(&server.BatchBuf{CheckIns: []server.CheckIn{{DeviceID: deviceOwnedBy(t, a.clu.Ring(), owner.addr, "ref"), CPU: 0.9, Mem: 0.9}}}, nil)[0]
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
// (HTTP ingress, encoded for the hop).
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

// TestHopsKeepWithinFrameLimit: the owner's frame limit (the transport
// default, server.MaxBatch KiB, a trace context included) bounds every hop.
// A group just under it travels in one frame; a group past it is answered too
// large on every item and never sent.
func TestHopsKeepWithinFrameLimit(t *testing.T) {
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

	// wide returns n peer-owned check-ins whose IDs make each item 1,125 wire
	// bytes, then one local check-in.
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

	// A 7,400-item group (8.3 MB) fits.
	b, raw := decodedBatch(t, wide(7400))
	res, _ := clu.CheckInBatchBuf(b, raw, nil)
	for i, r := range res {
		if r.Error != "" {
			t.Fatalf("item %d: %s", i, r.Error)
		}
	}
	fake.mu.Lock()
	sizes := slices.Clone(fake.sizes)
	fake.mu.Unlock()
	if len(sizes) != 1 {
		t.Errorf("%d hop frames, want 1", len(sizes))
	}
	for _, n := range sizes {
		if n+transport.TraceContextSize > server.MaxBatch*1024 {
			t.Errorf("hop payload of %d bytes: with a trace context it is past the owner's frame limit of %d", n, server.MaxBatch*1024)
		}
	}

	// A group the limit cannot take, as HTTP ingress can produce it: no raw
	// bytes, each item encoded into the hop payload.
	cis := wide(7460)
	res, _ = clu.CheckInBatchRaw(cis, server.RawItems{}, nil)
	for i, r := range res[:len(res)-1] {
		if !strings.Contains(r.Error, "frame limit") {
			t.Fatalf("item %d of an oversized group: error %q, want the frame limit", i, r.Error)
		}
	}
	if r := res[len(res)-1]; r.Error != "" {
		t.Errorf("the local item of an oversized batch: %s", r.Error)
	}
	if got := fake.forwards.Load(); got != 1 {
		t.Errorf("the oversized group reached the peer (%d forwards, want 1)", got)
	}
	if tel := clu.ClusterTelemetry(); tel.ClusterForwardsOut != 1 || tel.ClusterForwardErrors != 0 || tel.ClusterLocalFallbacks != 0 {
		t.Errorf("%d hop frames, %d forward errors, %d fallbacks; want 1, 0, 0", tel.ClusterForwardsOut, tel.ClusterForwardErrors, tel.ClusterLocalFallbacks)
	}
	if got := int(m.MetricsSnapshot().KnownDevices); got != 2 {
		t.Errorf("%d devices registered here, want the 2 local ones", got)
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

// TestHTTPIngressRidesTheHop: a JSON batch has no wire bytes to splice, so
// its remote groups are encoded item by item into their hop payloads.
// Through a real two-member federation the results equal a direct run on one
// daemon and the hop bytes are counted; behind held replies, concurrent HTTP
// batches send one hop frame each, as stream batches do.
func TestHTTPIngressRidesTheHop(t *testing.T) {
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
	const posts, per = 8, 16
	var wg sync.WaitGroup
	defer wg.Wait()
	release := sync.OnceFunc(func() { close(fake.block) })
	defer release() // on every path, as in TestOneHopFramePerBatchOwner
	for k := 0; k < posts; k++ {
		cis, remote := fleetOf(clu.Ring(), fmt.Sprintf("hc%d", k), per, "peer-1")
		if remote == 0 || remote == per {
			t.Fatalf("batch %d does not span both owners (%d of %d on the peer)", k, remote, per)
		}
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
	}
	waitFor(t, func() bool { return fake.forwards.Load() == posts }) // every hop is parked in the fake
	release()
	wg.Wait()
	if tel := clu.ClusterTelemetry(); tel.ClusterForwardErrors != 0 || tel.ClusterForwardsOut != posts || fake.forwards.Load() != posts {
		t.Errorf("%d HTTP batches: %d hop frames counted for %d sent, %d errors; want one per batch, clean", posts, tel.ClusterForwardsOut, fake.forwards.Load(), tel.ClusterForwardErrors)
	}
}

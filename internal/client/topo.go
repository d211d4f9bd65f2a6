// Ring-aware client routing (WithTopology). The client fetches the
// federation topology from its seed daemon over OpTopology, builds the same
// consistent-hash ring the daemons use (internal/hashring — identical hash,
// identical vnode expansion, so client and cluster always agree on
// ownership), and partitions every call by device owner onto a pooled
// per-member StreamClient. In a healthy, settled cluster every item lands on
// its owner directly and the daemons' forward path goes idle.
//
// Staleness: the ring is a cache. When it is stale (a member joined, died,
// or recovered between the fetch and a send), misrouted items still land on
// a daemon — which forwards them server-side exactly as before and sets the
// forwarded flag on its response. The client treats that flag, and any
// failed send (see Failover), as "re-fetch before the next batch"
// (single-flight, asynchronous); it learns the ring only by asking, so a
// ring that goes stale is corrected by the traffic it misroutes. Correctness
// never depends on ring freshness — only locality does.
//
// Failover: a transport failure on a member connection (dial refused,
// connection lost, timeout) retries the sub-batch ONCE on a different live
// member, which serves or forwards it authoritatively. That makes routed
// calls at-least-once under member failure: a sub-batch is never silently
// dropped, which is the guarantee TestRingAwareFailoverLosesNoCheckIn
// (internal/cluster) pins. It is not exactly-once. When the failed attempt
// did commit (a timeout or a connection lost after the owner applied it),
// the retry is applied a second time, and check-ins are not idempotent: a
// device the first attempt assigned is answered with ErrDeviceBusy's
// per-item error, and the first assignment, whose reply was lost, stays
// held until its deadline expires it. So failover can lose an assignment,
// never a device. Making a retry return the first answer is the idempotency
// item in ROADMAP.md. Typed rejections (StreamError) are authoritative
// answers and are never retried.
//
// Degradation: a seed daemon that answers OpTopology with CodeUnavailable
// (no federation layer) permanently disables the mode — the client behaves
// exactly like a plain StreamClient from then on.

package client

import (
	"errors"
	"sync"

	"venn/internal/hashring"
	"venn/internal/server"
	"venn/internal/transport"
)

// topoView is one immutable routing view: the ring at one epoch plus the
// member clients to send on. Swapped wholesale under topoState.mu.
type topoView struct {
	epoch   uint64
	ring    *hashring.Ring
	members []string // sorted, as served
	clients map[string]*StreamClient
}

// owner resolves the member an item routes to. Unroutable (empty-ID) items
// go to the first member, deterministically.
func (v *topoView) owner(deviceID string) string {
	if deviceID == "" {
		return v.members[0]
	}
	return v.ring.Owner(deviceID)
}

// alt picks a failover member ≠ m: the first other member of the view, else
// nil when m is the only one.
func (v *topoView) alt(m string) *StreamClient {
	for _, mm := range v.members {
		if mm != m {
			return v.clients[mm]
		}
	}
	return nil
}

// topoState is the mutable side: the current view, the persistent member
// client pool (members that drop off the ring keep their client — they
// usually come back), and the single-flight fetch state.
type topoState struct {
	root *StreamClient
	addr string // the seed address root dials
	cfg  config

	mu       sync.Mutex
	view     *topoView
	clients  map[string]*StreamClient // persistent pool, root included under addr
	fetching bool
	disabled bool
}

func newTopoState(root *StreamClient, addr string, cfg config) *topoState {
	cfg.topology = false // member sub-clients are plain
	return &topoState{
		root:    root,
		addr:    addr,
		cfg:     cfg,
		clients: map[string]*StreamClient{addr: root},
	}
}

// close tears down the member sub-clients (the root's own connections are
// closed by StreamClient.Close, which calls this first).
func (t *topoState) close() {
	t.mu.Lock()
	clients := t.clients
	t.clients = map[string]*StreamClient{t.addr: t.root}
	t.disabled = true
	t.view = nil
	t.mu.Unlock()
	for _, cl := range clients {
		if cl != t.root {
			_ = cl.Close()
		}
	}
}

// ensureView returns the current routing view, fetching it synchronously on
// first use. nil means "route plainly through the seed for now": the mode is
// disabled, or another goroutine is mid-fetch.
func (t *topoState) ensureView() *topoView {
	t.mu.Lock()
	if t.disabled {
		t.mu.Unlock()
		return nil
	}
	if v := t.view; v != nil {
		t.mu.Unlock()
		return v
	}
	if t.fetching {
		t.mu.Unlock()
		return nil
	}
	t.fetching = true
	t.mu.Unlock()
	t.fetch()
	t.mu.Lock()
	v := t.view
	t.mu.Unlock()
	return v
}

// fetch performs one OpTopology round trip and installs the result. The
// caller must have set t.fetching; fetch clears it.
func (t *topoState) fetch() {
	var view *topoView
	_, err := t.root.do(transport.OpTopology, encoded(nil), func(payload []byte) error {
		var tp transport.TopologyPayload
		if tp.UnmarshalBinary(payload) == nil {
			view = t.buildView(tp)
		}
		return nil
	})
	disable := false
	if err != nil {
		var se *StreamError
		// A seed with no federation layer will never serve a topology; a
		// transport failure might, next time.
		disable = errors.As(err, &se)
	}
	t.mu.Lock()
	t.fetching = false
	if disable {
		t.disabled = true
	}
	if view != nil && (t.view == nil || view.epoch >= t.view.epoch) {
		t.view = view
	}
	t.mu.Unlock()
}

// buildView materializes a served topology into a routing view, creating
// member clients the pool doesn't hold yet.
func (t *topoState) buildView(tp transport.TopologyPayload) *topoView {
	members := tp.Members
	if len(members) == 0 {
		members = []string{t.addr}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	clients := make(map[string]*StreamClient, len(members))
	for _, m := range members {
		cl := t.clients[m]
		if cl == nil {
			cl = newStreamClient(m, t.cfg)
			t.clients[m] = cl
		}
		clients[m] = cl
	}
	return &topoView{
		epoch:   tp.Epoch,
		ring:    hashring.New(members, tp.VNodes),
		members: members,
		clients: clients,
	}
}

// markStale triggers one asynchronous re-fetch unless a fresher view (epoch
// beyond the one found stale) is already installed or a fetch is in flight.
func (t *topoState) markStale(epoch uint64) {
	t.mu.Lock()
	if t.disabled || t.fetching || (t.view != nil && t.view.epoch > epoch) {
		t.mu.Unlock()
		return
	}
	t.fetching = true
	t.mu.Unlock()
	go t.fetch()
}

// retryable reports whether a failed sub-call may be retried on another
// member: transport failures yes (pre-send ones certainly never reached a
// daemon; ambiguous ones ride the at-least-once contract), typed rejections
// no (the daemon answered).
func retryable(err error) bool {
	var se *StreamError
	return !errors.As(err, &se)
}

// sendGroup runs one member sub-call with the staleness and failover
// contract: the forwarded flag (from either attempt) marks the view stale,
// and a transport failure retries once on a different member.
func sendGroup[Res any](t *topoState, v *topoView, member string,
	call func(cl *StreamClient) (Res, bool, error)) (Res, error) {
	res, fwd, err := call(v.clients[member])
	if fwd {
		t.markStale(v.epoch)
	}
	if err == nil || !retryable(err) {
		return res, err
	}
	t.markStale(v.epoch)
	alt := v.alt(member)
	if alt == nil {
		return res, err
	}
	res, fwd, err2 := call(alt)
	if fwd {
		t.markStale(v.epoch)
	}
	if err2 != nil {
		return res, err2
	}
	return res, nil
}

// partitioned is the shared batch engine: split items by owner under one
// view, send the sub-batches concurrently (one frame per owner), merge
// results back into request order. Sub-batch failures fail the whole call
// (matching plain batch semantics); per-item rejections stay per-item.
func partitioned[Req, Res any](t *topoState, items []Req, deviceID func(Req) string,
	plain func(cl *StreamClient, sub []Req) ([]Res, bool, error)) ([]Res, error) {
	v := t.ensureView()
	if v == nil || len(items) == 0 {
		res, _, err := plain(t.root, items)
		return res, err
	}
	// Single-owner fast path: an affinity-aligned fleet (or a one-member
	// ring) puts every item of a batch on the same owner, so the batch goes
	// out as-is — no index map, no sub-slice copy, no fan-out goroutine.
	first := v.owner(deviceID(items[0]))
	split := 1
	for ; split < len(items); split++ {
		if v.owner(deviceID(items[split])) != first {
			break
		}
	}
	if split == len(items) {
		return sendGroup(t, v, first, func(cl *StreamClient) ([]Res, bool, error) {
			return plain(cl, items)
		})
	}
	groups := make(map[string][]int)
	prefix := make([]int, split)
	for i := range prefix {
		prefix[i] = i
	}
	groups[first] = prefix
	for i := split; i < len(items); i++ {
		m := v.owner(deviceID(items[i]))
		groups[m] = append(groups[m], i)
	}
	out := make([]Res, len(items))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for m, idxs := range groups {
		wg.Add(1)
		go func(m string, idxs []int) {
			defer wg.Done()
			sub := make([]Req, len(idxs))
			for j, i := range idxs {
				sub[j] = items[i]
			}
			res, err := sendGroup(t, v, m, func(cl *StreamClient) ([]Res, bool, error) {
				return plain(cl, sub)
			})
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			for j, i := range idxs {
				out[i] = res[j]
			}
		}(m, idxs)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

func (t *topoState) checkInBatch(cis []server.CheckIn) ([]server.CheckInResult, error) {
	return partitioned(t, cis, func(ci server.CheckIn) string { return ci.DeviceID }, (*StreamClient).checkInBatchOp)
}

func (t *topoState) reportBatch(rs []server.Report) ([]server.ReportResult, error) {
	return partitioned(t, rs, func(r server.Report) string { return r.DeviceID }, (*StreamClient).reportBatchOp)
}

// TopologyEpoch reports the epoch of the client's current topology view (0
// when none is installed) and whether ring-aware routing is currently
// active. Primarily for harnesses and tests.
func (s *StreamClient) TopologyEpoch() (uint64, bool) {
	if s.topo == nil {
		return 0, false
	}
	s.topo.mu.Lock()
	defer s.topo.mu.Unlock()
	if s.topo.disabled || s.topo.view == nil {
		return 0, false
	}
	return s.topo.view.epoch, true
}

// InjectTopologyForTest force-installs a topology view, bypassing the fetch
// path. Tests use it to simulate a stale ring (e.g. a different vnode count
// than the servers') and then assert the forwarded-flag correction; it is
// not part of the supported API.
func (s *StreamClient) InjectTopologyForTest(epoch uint64, vnodes int, members []string) {
	if s.topo == nil {
		return
	}
	view := s.topo.buildView(transport.TopologyPayload{Epoch: epoch, VNodes: vnodes, Members: members})
	s.topo.mu.Lock()
	s.topo.view = view
	s.topo.mu.Unlock()
}

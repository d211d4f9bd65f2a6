package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"venn/internal/obs"
	"venn/internal/server"
	"venn/internal/transport"
)

// Relay tuning. A relay coalesces the forwarded slices of many concurrently
// served batches into one hop frame per peer, so the forward path costs one
// frame per group-commit round instead of one per misrouted batch.
const (
	// relayFlushItems detaches a coalesced batch for an immediate parallel
	// flush once it holds this many items, instead of letting it grow behind
	// the in-flight flush. It must stay ≤ server.MaxBatch or the owner would
	// reject the hop frame; contribute additionally detaches whenever
	// appending a group would cross MaxBatch.
	relayFlushItems = 1024
	// relayFlushBytes detaches once the coalesced payload reaches this size —
	// big enough to amortize the frame, small enough to keep owner-side
	// decode latency flat.
	relayFlushBytes = 128 << 10
	// relayHdr is the room a coalescing buffer keeps ahead of its items for
	// the count prefix, written once the count is final: the hop payload is
	// built in place, once.
	relayHdr = binary.MaxVarintLen16
	// relayMaxBytes bounds a coalescing buffer, relayHdr included, so that the
	// hop payload it becomes, a trace context in front, stays within the
	// owner's frame limit: the transport's default MaxPayload, which every
	// daemon runs. A frame past it is a protocol violation, and the owner
	// drops the connection with every frame in flight on it.
	relayMaxBytes = server.MaxBatch*1024 - transport.TraceContextSize
)

// batchOps is what differs between the check-in and the report batch paths;
// everything else in this file is generic over it. The two instances are
// package-level, so the hot path passes no closures.
type batchOps[Req, Res any] struct {
	op      byte // the batch opcode a hop frame carries
	items   func(*server.BatchBuf) *[]Req
	id      func(*Req) string
	enc     func(*Req, []byte) ([]byte, error)                       // append an item's wire form (a batch without raw bytes)
	slots   func(*server.BatchBuf, int) []Res                        // the merged result slots
	serve   func(*server.Manager, *server.BatchBuf, *obs.Span) []Res // apply the buffer's items here, out of the buffer
	relay   func(*peer) *relay[Req, Res]
	next    func(*server.ResultCursor, *Res) // decode an owner's next result into a slot
	errItem func(msg string) Res
	waits   sync.Pool // of *batchWait[Res]
}

var checkInOps = batchOps[server.CheckIn, server.CheckInResult]{
	op:      transport.OpCheckInBatch,
	items:   func(b *server.BatchBuf) *[]server.CheckIn { return &b.CheckIns },
	id:      func(ci *server.CheckIn) string { return ci.DeviceID },
	enc:     (*server.CheckIn).AppendBinary,
	slots:   (*server.BatchBuf).CheckInSlots,
	serve:   (*server.Manager).CheckInBatchBuf,
	relay:   func(p *peer) *relay[server.CheckIn, server.CheckInResult] { return p.ciRelay },
	next:    (*server.ResultCursor).CheckIn,
	errItem: func(msg string) server.CheckInResult { return server.CheckInResult{Error: msg} },
}

var reportOps = batchOps[server.Report, server.ReportResult]{
	op:      transport.OpReportBatch,
	items:   func(b *server.BatchBuf) *[]server.Report { return &b.Reports },
	id:      func(r *server.Report) string { return r.DeviceID },
	enc:     (*server.Report).AppendBinary,
	slots:   (*server.BatchBuf).ReportSlots,
	serve:   (*server.Manager).ReportBatchBuf,
	relay:   func(p *peer) *relay[server.Report, server.ReportResult] { return p.repRelay },
	next:    (*server.ResultCursor).Report,
	errItem: func(msg string) server.ReportResult { return server.ReportResult{Error: msg} },
}

// plan writes the flat owner plan of items into b under snap and returns how
// many live remote owners the batch touches. Groups are the ring's member
// indices, plus one last group for what is served here: items this node
// owns, unroutable ones, and those of a down owner — counted as one fallback
// per owner per batch (frame granularity, matching forwardsOut). One hash and
// one table load per item; with nothing remote the sort is skipped and
// b.Order is not valid.
func plan[Req any](c *Cluster, snap *snapshot, b *server.BatchBuf, items []Req, id func(*Req) string) (remote int) {
	local := int32(len(snap.table) - 1)
	n, starts := len(items), len(snap.table)+2
	b.Owner, b.Order = slices.Grow(b.Owner[:0], n)[:n], slices.Grow(b.Order[:0], n)[:n]
	b.Start = slices.Grow(b.Start[:0], starts)[:starts]
	clear(b.Start)
	// Counted two places up, so that the prefix sums are each group's start
	// one place up, and the scatter, advancing them, leaves them in place.
	count := b.Start[2:]
	for i := range items {
		g := local
		if k := id(&items[i]); k != "" {
			g = int32(snap.ring.OwnerIndex(k))
		}
		b.Owner[i] = g
		count[g]++
	}
	for m, p := range snap.table[:local] {
		switch {
		case count[m] == 0:
		case p != nil:
			remote++
		default:
			if m != c.self {
				c.localFallbacks.Add(1)
			}
			count[local] += count[m]
			count[m] = 0
		}
	}
	if remote == 0 {
		return 0
	}
	for g := 1; g < len(b.Start); g++ {
		b.Start[g] += b.Start[g-1]
	}
	for i, g := range b.Owner {
		if snap.table[g] == nil {
			g = local
		}
		b.Order[b.Start[g+1]] = int32(i)
		b.Start[g+1]++
	}
	return remote
}

// relayGroup is one batch's share of one hop: the item indices it forwards (a
// range of its BatchBuf's plan) and the batch's result slots, which whoever
// sends the hop fills at those indices before releasing the batch through
// wait. Otherwise exactly one of two verdicts is set: fallback asks the batch
// to apply the items locally (the hop provably never left this node), typed
// carries the error to report on each (authoritative rejection, ambiguous
// outcome, or a group the owner's frame limit cannot take; see forwardFailed
// and relay.contribute).
type relayGroup[Res any] struct {
	idxs     []int32
	out      []Res
	wait     *sync.WaitGroup
	fallback bool
	typed    error
}

// batchWait is what a split batch blocks on while its hops are out: one group
// per live remote owner. Pooled in batchOps.
type batchWait[Res any] struct {
	wg     sync.WaitGroup
	groups []relayGroup[Res]
}

// forwardBatch is the engine behind every batch entry point: split by owner
// (plan), hand each remote group to its owner, apply the local group inline
// while the hops are out, and merge everything into b's result slots in
// request order with per-item errors preserved. Each remote group is
// contributed to its owner's relay, which coalesces it into a hop frame:
// raw's still-encoded byte ranges are spliced in, and a batch without them
// (HTTP ingress) is encoded item by item. A remote group whose hop
// provably never left this node is applied locally (degraded mode); a group
// the owner rejected, whose outcome is unknown, or that no hop frame can
// carry reports the failure on each of its items via errItem — items are
// never dropped, and never guess-applied on the wrong node. One in-flight
// permit covers the whole batch's hops. The
// returned bool reports whether any item was planned onto a peer (the
// forwarded flag a ring-aware client reads as "your topology is stale"). A
// sampled span's hop stage spans first-send-to-last-verdict — the local
// slice is served meanwhile, so the mark is the wall time the request
// genuinely spent waiting on peers.
func forwardBatch[Req, Res any](c *Cluster, o *batchOps[Req, Res], b *server.BatchBuf, raw server.RawItems, sp *obs.Span) ([]Res, bool) {
	items := *o.items(b)
	if len(raw.Bounds) != len(items)+1 {
		raw.Data = nil
	}
	snap := c.snap.Load()
	remote := plan(c, snap, b, items, o.id)
	if remote == 0 {
		// Every item is local, in request order: serve the batch as-is, no
		// gather copy, no merge. This is the steady state under ring-aware
		// clients.
		c.directRoutedBatches.Add(1)
		return o.serve(c.m, b, sp), false
	}
	if !c.acquireForward() {
		// Draining: every remote group is applied locally, so the batch is
		// served whole.
		c.localFallbacks.Add(int64(remote))
		return o.serve(c.m, b, sp), false
	}
	defer c.inflight.Done()
	sp.SetForwarded()
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	out := o.slots(b, len(items))
	w, _ := o.waits.Get().(*batchWait[Res])
	if w == nil {
		w = new(batchWait[Res])
	}
	w.groups = slices.Grow(w.groups[:0], remote) // no regrowth below: the relays hold pointers into it
	w.wg.Add(remote)
	local := len(snap.table) - 1
	for m, p := range snap.table[:local] {
		idxs := b.Order[b.Start[m]:b.Start[m+1]]
		if len(idxs) == 0 {
			continue
		}
		w.groups = append(w.groups, relayGroup[Res]{idxs: idxs, out: out, wait: &w.wg})
		o.relay(p).contribute(items, raw, &w.groups[len(w.groups)-1], sp.TraceID())
	}
	serveLocal(c, o, b, b.Order[b.Start[local]:], out, sp)
	w.wg.Wait()
	for i := range w.groups {
		switch g := &w.groups[i]; {
		case g.typed != nil:
			fill := o.errItem(g.typed.Error())
			for _, i := range g.idxs {
				out[i] = fill
			}
		case g.fallback:
			serveLocal(c, o, b, g.idxs, out, sp)
		}
	}
	clear(w.groups)
	o.waits.Put(w)
	if sp != nil {
		sp.Mark(obs.StageHop, time.Since(t0))
	}
	return out, true
}

// serveLocal applies the idxs items of b's batch on this node — gathered
// into, and served out of, b.Sub() — and merges the results into out.
func serveLocal[Req, Res any](c *Cluster, o *batchOps[Req, Res], b *server.BatchBuf, idxs []int32, out []Res, sp *obs.Span) {
	if len(idxs) == 0 {
		return
	}
	sub := b.Sub()
	items, dst := *o.items(b), o.items(sub)
	*dst = (*dst)[:0]
	for _, i := range idxs {
		*dst = append(*dst, items[i])
	}
	for j, res := range o.serve(c.m, sub, sp) {
		out[idxs[j]] = res
	}
}

func shortReply(got, want int) error {
	return fmt.Errorf("cluster: owner answered %d results for %d forwarded items", got, want)
}

// deliver ends one hop for the groups it carried, in contribution order: an
// error becomes every group's verdict (see forwardFailed), and each group's
// batch is released. The reply has been decoded into the groups' slots
// already. A group is not touched after its release.
func deliver[Res any](c *Cluster, groups []*relayGroup[Res], err error) {
	var fallback bool
	var typed error
	if err != nil {
		fallback, typed = c.forwardFailed(err)
	}
	for _, g := range groups {
		g.fallback, g.typed = fallback, typed
		g.wait.Done()
	}
}

// relayBatch is a coalesced batch: relayHdr spare bytes then the concatenated
// still-encoded items, their count, the groups awaiting the verdict, and the
// trace context the hop frame carries. One frame carries one trace, so the
// first sampled contributor's trace ID wins the round — sampling is sparse
// enough (1-in-64 by default) that two sampled requests colliding in one
// commit round is rare, and losing a hop mark merely under-samples. Batches
// cycle through their relay's pool; dec is bound once per batch, so handing
// it to the peer client allocates nothing.
type relayBatch[Req, Res any] struct {
	o      *batchOps[Req, Res]
	buf    []byte
	items  int
	groups []*relayGroup[Res]
	trace  uint64
	dec    func(reply []byte) error
	cur    server.ResultCursor // decode's; here because o.next would move a local to the heap
}

// decode walks the owner's reply once, each result straight into the slot of
// the item it answers.
func (b *relayBatch[Req, Res]) decode(reply []byte) error {
	cur := &b.cur
	if n := cur.Count(reply); n != b.items {
		if err := cur.Finish(); err != nil {
			return err
		}
		return shortReply(n, b.items)
	}
	for _, g := range b.groups {
		for _, i := range g.idxs {
			b.o.next(cur, &g.out[i])
		}
	}
	return cur.Finish()
}

// relay is the per-peer, per-operation coalescer, shaped as a group commit:
// at most one commit flush is on the wire at a time, a contribution arriving
// while the relay is idle flushes immediately (sparse traffic pays zero
// added latency), and contributions arriving while a flush is in flight
// accumulate and are flushed as one frame the moment it completes. The
// coalescing factor therefore self-tunes to load × peer RTT with no timers —
// deadline timers carry millisecond-scale wake slop on many kernels, far
// beyond any window worth configuring here. Size overflow (relayFlushItems /
// relayFlushBytes / MaxBatch) detaches for a parallel flush so one slow
// commit round can't stall a hot peer.
type relay[Req, Res any] struct {
	c    *Cluster
	p    *peer
	o    *batchOps[Req, Res]
	loop func()    // commitLoop, bound once: `go r.loop()` allocates nothing
	free sync.Pool // of *relayBatch[Req, Res]

	mu       sync.Mutex
	cur      *relayBatch[Req, Res] // coalescing; nil when nothing is pending
	commit   *relayBatch[Req, Res] // detached for commitLoop to flush next
	inFlight bool                  // a commitLoop is running and drains what accumulates
}

func newRelay[Req, Res any](c *Cluster, p *peer, o *batchOps[Req, Res]) *relay[Req, Res] {
	r := &relay[Req, Res]{c: c, p: p, o: o}
	r.loop = r.commitLoop
	return r
}

// contribute appends the g.idxs items of a batch to the coalescing buffer:
// raw's byte ranges spliced in when the batch arrived encoded, each item
// encoded otherwise. g's batch is released once the hop carrying them has a
// verdict. The bytes are in the buffer before contribute returns, which is
// what lets the transport recycle raw.Data when its handler finishes. The
// caller must hold an inflight permit (acquireForward) until then.
func (r *relay[Req, Res]) contribute(items []Req, raw server.RawItems, g *relayGroup[Res], trace uint64) {
	var full, sized *relayBatch[Req, Res]
	start := false
	r.mu.Lock()
	// Never let a coalesced batch cross MaxBatch: the owner's service layer
	// rejects larger hop frames outright.
	if r.cur != nil && r.cur.items+len(g.idxs) > server.MaxBatch {
		full, r.cur = r.cur, nil
	}
	b := r.cur
	if b == nil {
		b = r.batch()
	}
	mark := len(b.buf)
	for _, i := range g.idxs {
		if raw.Data != nil {
			b.buf = append(b.buf, raw.Data[raw.Bounds[i]:raw.Bounds[i+1]]...)
		} else {
			b.buf, _ = r.o.enc(&items[i], b.buf) // the item encoders cannot fail
		}
	}
	if len(b.buf) > relayMaxBytes && b.items > 0 {
		// Nor may it cross the owner's frame limit: what was pending leaves
		// without the group, which starts a batch of its own.
		nb := r.batch()
		nb.buf = append(nb.buf, b.buf[mark:]...)
		b.buf = b.buf[:mark]
		full, b = b, nb
	}
	if size := len(b.buf) - relayHdr; len(b.buf) > relayMaxBytes {
		// The group alone is past the limit (an HTTP batch at its body bound
		// can encode that large), so it is never sent.
		r.cur = nil
		r.mu.Unlock()
		r.recycle(b)
		if full != nil {
			go r.flush(full)
		}
		g.typed = &server.Error{Code: server.CodeTooLarge, Err: fmt.Errorf(
			"cluster: %d forwarded items encode to %d bytes, past the owner's frame limit", len(g.idxs), size)}
		g.wait.Done()
		return
	}
	r.cur = b
	b.items += len(g.idxs)
	b.groups = append(b.groups, g)
	if b.trace == 0 {
		b.trace = trace
	}
	switch {
	case b.items >= relayFlushItems || len(b.buf) >= relayFlushBytes:
		// Overflow valve: don't let a batch grow unboundedly behind the
		// in-flight commit — detach and send it in parallel right away.
		sized, r.cur = b, nil
	case !r.inFlight:
		// Idle relay: waiting can only add latency. Flush immediately and
		// let whatever arrives during the flush accumulate for the next
		// commit round.
		r.inFlight, start = true, true
		r.commit, r.cur = b, nil
	}
	r.mu.Unlock()
	if full != nil {
		go r.flush(full)
	}
	if sized != nil {
		go r.flush(sized)
	}
	if start {
		go r.loop()
	}
}

// batch returns an empty coalescing batch, its buffer holding the relayHdr
// spare.
func (r *relay[Req, Res]) batch() *relayBatch[Req, Res] {
	b, _ := r.free.Get().(*relayBatch[Req, Res])
	if b == nil {
		b = &relayBatch[Req, Res]{o: r.o}
		b.dec = b.decode
	}
	b.buf = transport.GetBuf(4096)[:relayHdr]
	return b
}

// recycle returns a batch that is done with to the free list.
func (r *relay[Req, Res]) recycle(b *relayBatch[Req, Res]) {
	transport.PutBuf(b.buf)
	clear(b.groups)
	b.buf, b.items, b.groups, b.trace = nil, 0, b.groups[:0], 0
	r.free.Put(b)
}

// commitLoop is the group-commit driver: flush the detached batch, then keep
// flushing whatever accumulated while the previous flush was on the wire,
// until a round ends with nothing pending. Exactly one commitLoop runs per
// relay (guarded by inFlight), so hop frames for coalesced traffic stay
// ordered per peer while overflow flushes may overtake in parallel.
func (r *relay[Req, Res]) commitLoop() {
	r.mu.Lock()
	for r.commit != nil {
		b := r.commit
		r.mu.Unlock()
		r.flush(b)
		r.mu.Lock()
		r.commit, r.cur = r.cur, nil
	}
	r.inFlight = false
	r.mu.Unlock()
}

// flush sends one detached batch to the peer and delivers the verdict to
// every contributing group, whose slots the reply was decoded into. One flush
// is one hop frame (forwards_out counts frames) and its payload size feeds
// forward_bytes_out.
func (r *relay[Req, Res]) flush(b *relayBatch[Req, Res]) {
	var count [relayHdr]byte
	n := binary.PutUvarint(count[:], uint64(b.items))
	payload := b.buf[relayHdr-n:]
	copy(payload, count[:n])
	r.c.forwardsOut.Add(1)
	r.c.forwardBytesOut.Add(int64(len(payload)))
	err := r.p.c.ForwardRaw(r.o.op, payload, b.trace, b.dec)
	deliver(r.c, b.groups, err)
	r.recycle(b)
}

// CheckInBatchBuf implements server.Router (see forwardBatch).
func (c *Cluster) CheckInBatchBuf(b *server.BatchBuf, raw server.RawItems, sp *obs.Span) ([]server.CheckInResult, bool) {
	return forwardBatch(c, &checkInOps, b, raw, sp)
}

// ReportBatchBuf implements server.Router (see forwardBatch).
func (c *Cluster) ReportBatchBuf(b *server.BatchBuf, raw server.RawItems, sp *obs.Span) ([]server.ReportResult, bool) {
	return forwardBatch(c, &reportOps, b, raw, sp)
}

// CheckInBatchRaw is CheckInBatchBuf over a fresh BatchBuf, for callers that
// hold no buffer to serve out of (the benchmark's layer walk).
func (c *Cluster) CheckInBatchRaw(cis []server.CheckIn, raw server.RawItems, sp *obs.Span) ([]server.CheckInResult, bool) {
	return c.CheckInBatchBuf(&server.BatchBuf{CheckIns: cis}, raw, sp)
}

// ReportBatch is ReportBatchBuf over a fresh BatchBuf, without raw bytes.
func (c *Cluster) ReportBatch(rs []server.Report, sp *obs.Span) ([]server.ReportResult, bool) {
	return c.ReportBatchBuf(&server.BatchBuf{Reports: rs}, server.RawItems{}, sp)
}

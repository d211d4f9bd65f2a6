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

// hopMaxBytes bounds a hop payload so that, a trace context in front, it
// stays within the owner's frame limit: the transport's default MaxPayload,
// which every daemon runs. A frame past it is a protocol violation, and the
// owner drops the connection with every frame in flight on it.
const hopMaxBytes = server.MaxBatch*1024 - transport.TraceContextSize

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
	next    func(*server.ResultCursor, *Res)                         // decode an owner's next result into a slot
	errItem func(msg string) Res
	waits   sync.Pool // of *batchWait[Req, Res]
}

var checkInOps = batchOps[server.CheckIn, server.CheckInResult]{
	op:      transport.OpCheckInBatch,
	items:   func(b *server.BatchBuf) *[]server.CheckIn { return &b.CheckIns },
	id:      func(ci *server.CheckIn) string { return ci.DeviceID },
	enc:     (*server.CheckIn).AppendBinary,
	slots:   (*server.BatchBuf).CheckInSlots,
	serve:   (*server.Manager).CheckInBatchBuf,
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

// hop is one remote owner's share of one batch and the frame that carries
// it: the item indices it forwards (a range of the BatchBuf's plan), their
// payload, and the batch's result slots, into which the owner's reply is
// decoded at those indices. Once the hop is back, at most one of two verdicts
// is set: fallback asks the batch to apply the items locally (the frame
// provably never left this node), typed carries the error to report on each
// (authoritative rejection, ambiguous outcome, or a payload past the owner's
// frame limit; see forwardFailed and build). run and dec are bound once per
// hop, so starting it and handing its decoder to the peer client allocate
// nothing. Hops cycle with their batchWait.
type hop[Req, Res any] struct {
	c        *Cluster
	o        *batchOps[Req, Res]
	p        *peer
	wg       *sync.WaitGroup
	idxs     []int32
	out      []Res
	payload  []byte
	trace    uint64
	fallback bool
	typed    error
	run      func()              // send, bound once: `go h.run()` allocates nothing
	dec      func([]byte) error  // decode, bound once
	cur      server.ResultCursor // decode's; here because o.next would move a local to the heap
}

// batchWait is what a split batch blocks on while its hops are out: one hop
// per live remote owner. Pooled in batchOps, with its hops.
type batchWait[Req, Res any] struct {
	wg   sync.WaitGroup
	hops []*hop[Req, Res]
}

// hop returns the wait's k-th hop, made the first time the wait needs it.
func (w *batchWait[Req, Res]) hop(o *batchOps[Req, Res], k int) *hop[Req, Res] {
	if k == len(w.hops) {
		h := &hop[Req, Res]{o: o, wg: &w.wg}
		h.run, h.dec = h.send, h.decode
		w.hops = append(w.hops, h)
	}
	return w.hops[k]
}

// forwardBatch is the engine behind every batch entry point: split by owner
// (plan), send each remote group to its owner as one hop frame, apply the
// local group inline while the hops are out, and merge everything into b's
// result slots in request order with per-item errors preserved. A hop's
// payload is built from its group alone: raw's still-encoded byte ranges
// spliced in, and a batch without them (HTTP ingress) encoded item by item.
// Each hop runs on a goroutine of its own, so the local group and every
// owner's round trip overlap. A remote group whose hop provably never left
// this node is applied locally (degraded mode); a group the owner rejected,
// whose outcome is unknown, or that no hop frame can carry reports the
// failure on each of its items via errItem — items are never dropped, and
// never guess-applied on the wrong node. One in-flight permit covers the
// whole batch's hops. The returned bool reports whether any item was planned
// onto a peer (the forwarded flag a ring-aware client reads as "your
// topology is stale"). Each hop frame carries the batch's trace. A sampled
// span's hop stage spans first-send-to-last-verdict — the local slice is
// served meanwhile, so the mark is the wall time the request genuinely spent
// waiting on peers.
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
	w, _ := o.waits.Get().(*batchWait[Req, Res])
	if w == nil {
		w = new(batchWait[Req, Res])
	}
	local := len(snap.table) - 1
	hops := 0
	for m, p := range snap.table[:local] {
		idxs := b.Order[b.Start[m]:b.Start[m+1]]
		if len(idxs) == 0 {
			continue
		}
		h := w.hop(o, hops)
		hops++
		h.c, h.p, h.idxs, h.out, h.trace = c, p, idxs, out, sp.TraceID()
		if h.build(items, raw) {
			w.wg.Add(1)
			go h.run()
		}
	}
	serveLocal(c, o, b, b.Order[b.Start[local]:], out, sp)
	w.wg.Wait()
	for _, h := range w.hops[:hops] {
		switch {
		case h.typed != nil:
			fill := o.errItem(h.typed.Error())
			for _, i := range h.idxs {
				out[i] = fill
			}
		case h.fallback:
			serveLocal(c, o, b, h.idxs, out, sp)
		}
		h.reset()
	}
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

// build writes the hop payload: the count prefix, then raw's byte ranges of
// the group's items when the batch arrived encoded, each item encoded
// otherwise. The bytes are in the payload before build returns, which is
// what lets the transport recycle raw.Data when its handler finishes. A
// payload past hopMaxBytes (an HTTP batch at its body bound can encode that
// large) is never sent: build answers it too large and returns false.
func (h *hop[Req, Res]) build(items []Req, raw server.RawItems) bool {
	buf := binary.AppendUvarint(transport.GetBuf(4096), uint64(len(h.idxs)))
	for _, i := range h.idxs {
		if raw.Data != nil {
			buf = append(buf, raw.Data[raw.Bounds[i]:raw.Bounds[i+1]]...)
		} else {
			buf, _ = h.o.enc(&items[i], buf) // the item encoders cannot fail
		}
	}
	h.payload = buf
	if len(buf) > hopMaxBytes {
		h.typed = &server.Error{Code: server.CodeTooLarge, Err: fmt.Errorf(
			"cluster: %d forwarded items encode to %d bytes, past the owner's frame limit", len(h.idxs), len(buf))}
		return false
	}
	return true
}

// send is the hop's goroutine: one hop frame to the owner (forwards_out
// counts frames, forward_bytes_out their payloads), the verdict of a failed
// one (see forwardFailed), then the batch's release. The reply has been
// decoded into the batch's slots by then.
func (h *hop[Req, Res]) send() {
	h.c.forwardsOut.Add(1)
	h.c.forwardBytesOut.Add(int64(len(h.payload)))
	if err := h.p.c.ForwardRaw(h.o.op, h.payload, h.trace, h.dec); err != nil {
		h.fallback, h.typed = h.c.forwardFailed(err)
	}
	h.wg.Done()
}

// decode walks the owner's reply once, each result straight into the slot of
// the item it answers.
func (h *hop[Req, Res]) decode(reply []byte) error {
	cur := &h.cur
	if n := cur.Count(reply); n != len(h.idxs) {
		if err := cur.Finish(); err != nil {
			return err
		}
		return shortReply(n, len(h.idxs))
	}
	for _, i := range h.idxs {
		h.o.next(cur, &h.out[i])
	}
	return cur.Finish()
}

// reset hands the payload back to the pool and drops the hop's hold on the
// batch, ready for the wait's next use.
func (h *hop[Req, Res]) reset() {
	transport.PutBuf(h.payload)
	h.c, h.p, h.idxs, h.out, h.payload = nil, nil, nil, nil, nil
	h.trace, h.fallback, h.typed = 0, false, nil
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

package server

// Flat-combining core commit pipeline. Every mutation of the scheduler core
// (assignments, reports, job arrivals, plan refreshes) is expressed as a
// typed coreOp. Under contention, callers push their op onto a lock-free
// MPSC queue and park on the op's done signal; one caller — the combiner —
// takes the core mutex and applies queued ops in rounds, so the per-section
// maintenance (supply drain, deadline expiry, plan republish) runs once per
// round instead of once per caller, and the mutex is acquired once per round
// instead of once per op. When there is no contention the pipeline
// degenerates to the historical behavior: the caller wins the combiner role
// on one CAS and applies its op directly under the lock, with no queue hop
// and no allocation.
//
// Combiner election uses a dedicated flag (not mu.TryLock) so that a
// non-participant holding the core mutex — Tick, StatsSnapshot,
// MetricsSnapshot — can never strand parked submitters: whichever submitter
// holds the flag blocks on mu.Lock and serves the queue as soon as the
// mutex frees. The combiner takes no shard locks, so submitters parking
// with their shard mutexes held (the serving paths always do) cannot
// deadlock it; the global lock order — shard locks ascending, then the core
// mutex — is unchanged.

import (
	"sync"
	"time"

	"venn/internal/obs"
	"venn/internal/simtime"
)

// Core commit modes (Config.coreCommit).
const (
	coreAuto    = iota // flat combining with an uncontended direct fast path
	coreDirect         // per-caller lock acquisition: the reference the tests compare against
	coreCombine        // every op through the queue (forces the combining path; tests)
)

// coreOpKind discriminates the typed core operations.
type coreOpKind uint8

const (
	opAssignBatch coreOpKind = iota
	opReportBatch
	opRegister
	opRefresh
)

// assignItem is one admitted check-in of a batch op, with its clamped scores.
// The result is written through out, which points into the submitter's
// result slice; the submitter is parked (or is the combiner) until the op
// completes, holding the shard locks, so out and the slot handle s stay
// valid for the combiner.
type assignItem struct {
	s        *slot
	cpu, mem float64
	out      *Assignment
}

// reportItem is one accepted report of a batch op.
type reportItem struct {
	r Report
	s *slot
}

// coreOp is one queued core operation. Exactly one payload group is live,
// selected by kind. Ops are pooled; wake persists across reuses.
type coreOp struct {
	qnext *coreOp // queue link; owned by the queue until the op is woken
	kind  coreOpKind

	assigns []assignItem // opAssignBatch payload
	reports []reportItem // opReportBatch payload

	spec   JobSpec   // opRegister payload
	status JobStatus // opRegister result

	// sp is the submitting request's observability span (nil when
	// unsampled); the combiner attributes the op's core apply time to it.
	sp *obs.Span

	// wake is the op's done signal. It is buffered so the combiner never
	// blocks waking a submitter; after the send the op belongs to its
	// submitter again and the combiner must not touch it.
	wake chan struct{}
}

var coreOpPool = sync.Pool{New: func() any { return &coreOp{wake: make(chan struct{}, 1)} }}

func getCoreOp(kind coreOpKind) *coreOp {
	op := coreOpPool.Get().(*coreOp)
	op.kind = kind
	return op
}

// putCoreOp returns an op to the pool, dropping payload references so pooled
// ops don't pin devices, slices, or request-backed strings.
func putCoreOp(op *coreOp) {
	op.qnext = nil
	op.assigns = nil
	op.reports = nil
	op.spec = JobSpec{}
	op.status = JobStatus{}
	op.sp = nil
	coreOpPool.Put(op)
}

// maxRoundsPerHold caps combining rounds per core-mutex hold so that under a
// saturated queue the combiner still releases the mutex periodically and
// non-participant lock users (Tick, snapshots) get through. exitCombining
// resumes combining immediately if ops remain.
const maxRoundsPerHold = 4

// pushOp adds op to the MPSC queue (a Treiber stack; the combiner reverses
// each drained batch back into arrival order).
func (m *Manager) pushOp(op *coreOp) {
	for {
		head := m.coreHead.Load()
		op.qnext = head
		if m.coreHead.CompareAndSwap(head, op) {
			return
		}
	}
}

// drainOps detaches the whole queue and reverses it into arrival order.
func (m *Manager) drainOps() *coreOp {
	head := m.coreHead.Swap(nil)
	var fifo *coreOp
	for head != nil {
		next := head.qnext
		head.qnext = fifo
		fifo = head
		head = next
	}
	return fifo
}

// submit runs one core op through the configured commit pipeline and returns
// once it has been applied. Callers hold their device shard mutexes (or none,
// for opRegister/opRefresh); the op's results are readable on return.
func (m *Manager) submit(op *coreOp) {
	if m.cfg.coreCommit != coreCombine {
		if m.cfg.coreCommit == coreDirect {
			// Historical per-caller acquisition, kept as a determinism
			// reference and an A/B lever (Config.coreCommit coreDirect).
			m.mu.Lock()
			now := m.now()
			m.drainSupplyLocked(now)
			m.expireDueLocked(now)
			m.applyOpLocked(op, now)
			m.mu.Unlock()
			return
		}
		// Uncontended fast path: win the combiner role before queueing and
		// apply directly under the lock — no queue hop, no parking.
		if m.combining.CompareAndSwap(false, true) {
			m.combine(op)
			m.exitCombining()
			return
		}
	}
	// Contended: enqueue, then either take over as combiner or park until a
	// combiner applies the op.
	t0 := time.Now()
	m.pushOp(op)
	if m.combining.CompareAndSwap(false, true) {
		m.combine(nil)
		m.exitCombining()
		<-op.wake // applied by our combine (or, past the round cap, a successor's)
	} else {
		<-op.wake
		wait := time.Since(t0)
		m.coreWait.Observe(int64(wait))
		op.sp.Mark(obs.StageQueueWait, wait)
	}
}

// combine is the combiner body: holding the combining flag, take the core
// mutex once and apply queued ops in rounds. Each round drains the whole
// queue, runs the section preamble (supply drain, deadline expiry) once,
// applies the ops in arrival order, and wakes their submitters. own — the
// fast-path caller's op, never queued — is applied first under the entry
// preamble. Before releasing the mutex the combiner republishes the plan if
// the round left it stale, so trailing check-ins keep the lock-free surplus
// path instead of re-entering the core one by one.
func (m *Manager) combine(own *coreOp) {
	m.mu.Lock()
	m.coreHeldSince.Store(time.Now().UnixNano())
	now := m.now()
	m.drainSupplyLocked(now)
	m.expireDueLocked(now)
	if own != nil {
		m.applyOpLocked(own, now)
		m.coreFastOps.Add(1)
	}
	for r := 0; r < maxRoundsPerHold; r++ {
		batch := m.drainOps()
		if batch == nil {
			break
		}
		if r > 0 || own != nil {
			now = m.now()
			m.drainSupplyLocked(now)
			m.expireDueLocked(now)
		}
		var n int64
		for op := batch; op != nil; {
			next := op.qnext
			op.qnext = nil
			m.applyOpLocked(op, now)
			op.wake <- struct{}{}
			op = next
			n++
		}
		m.coreRounds.Add(1)
		m.coreCombinedOps.Add(n)
	}
	if m.lockFreeOK && !m.venn.PlanFresh() {
		m.venn.RefreshPlan(m.now())
	}
	m.coreHeldSince.Store(0)
	m.mu.Unlock()
}

// exitCombining releases the combiner role and rescues late enqueuers: an op
// pushed after the final drain but before the flag cleared would otherwise
// park with no combiner left to serve it. The rescue is sound because a
// submitter pushes before trying its CAS, and that CAS can only fail before
// the Store below — so after the Store, either the re-check here observes
// the push, or the submitter's CAS succeeded and it combines for itself.
func (m *Manager) exitCombining() {
	for {
		m.combining.Store(false)
		if m.coreHead.Load() == nil || !m.combining.CompareAndSwap(false, true) {
			return
		}
		m.combine(nil)
	}
}

// applyOpLocked applies one core op. The caller holds the core mutex; now is
// the op's round time, shared by every op of the round.
func (m *Manager) applyOpLocked(op *coreOp, now simtime.Time) {
	// Apply timing is span-gated: at serving rates an unconditional clock
	// read per op would cost more than the whole combining win.
	var t0 time.Time
	if op.sp != nil {
		t0 = time.Now()
	}
	switch op.kind {
	case opAssignBatch:
		for i := range op.assigns {
			it := &op.assigns[i]
			*it.out = m.assignCoreLocked(it, now)
		}
	case opReportBatch:
		for i := range op.reports {
			m.reportCoreLocked(op.reports[i].r, op.reports[i].s, now)
		}
	case opRegister:
		op.status = m.registerJobLocked(op.spec, now)
	case opRefresh:
		if m.lockFreeOK && !m.venn.PlanFresh() {
			m.venn.RefreshPlan(now)
		}
	}
	if op.sp != nil {
		op.sp.Mark(obs.StageApply, time.Since(t0))
	}
}

// submitAssignBatch runs the core section for a batch's assignment-eligible
// check-ins in one op; results land through the items' out pointers. A single
// check-in is a batch of one.
func (m *Manager) submitAssignBatch(items []assignItem, sp *obs.Span) {
	op := getCoreOp(opAssignBatch)
	op.assigns = items
	op.sp = sp
	m.submit(op)
	putCoreOp(op)
}

// submitReportBatch applies a batch's accepted reports in one op.
func (m *Manager) submitReportBatch(items []reportItem, sp *obs.Span) {
	op := getCoreOp(opReportBatch)
	op.reports = items
	op.sp = sp
	m.submit(op)
	putCoreOp(op)
}

// submitRegister admits a pre-validated job spec through the pipeline.
func (m *Manager) submitRegister(spec JobSpec) JobStatus {
	op := getCoreOp(opRegister)
	op.spec = spec
	m.submit(op)
	st := op.status
	putCoreOp(op)
	return st
}

// submitRefresh pays one plan republish through the pipeline, so a batch
// that found the snapshot stale re-freshens it without a private core-mutex
// acquisition (and shares the refresh with every op of the same round).
func (m *Manager) submitRefresh() {
	op := getCoreOp(opRefresh)
	m.submit(op)
	putCoreOp(op)
}

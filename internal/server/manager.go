// Package server hosts Venn as a live, wall-clock resource manager — the
// standalone service of Figure 6. CL jobs register resource requests over
// HTTP, edge devices check in as they become available, Venn assigns each
// checked-in device to a job (step 2 of the paper's workflow), and devices
// report results or drop out. The scheduling core is exactly the simulator's
// (internal/core); this package adapts it to real time.
//
// Concurrency model: per-device state (the device registry, registry.go) is
// striped across Config.Shards lock shards keyed by a hash of the device ID,
// so check-ins from different devices never contend on one global lock.
// The scheduler core (Venn, job lifecycle, deadlines) stays behind a single
// mutex, but that mutex now guards only job-state mutation and plan
// construction: the finished cell plan is published as an immutable,
// epoch-versioned snapshot (core.PlanSnapshot) that the check-in paths read
// without any lock. A check-in whose device provably has no eligible open
// request under the fresh snapshot is answered entirely outside the core
// mutex — in a surplus fleet (most devices, most of the time) the serving
// path touches only its shard stripe and a few atomics. Supply history is
// likewise kept off the hot path: check-in counts accumulate in per-cell
// atomic counters and drain into the TSDB at the next core section (or
// Tick), trading sub-second recording precision — irrelevant at the 24h
// supply-averaging window — for a lock-free fast path. The batch entry
// points (CheckInBatch, ReportBatch) amortize one core-mutex acquisition
// across every item that still needs the scheduler.
//
// Check-ins that do need the scheduler — and reports, job arrivals and plan
// refreshes — commit in a core section (lockCore/unlockCore): the core
// mutex, one maintenance pass (supply drain, deadline expiry), the apply,
// and a republish of the plan the apply left stale. A batch pays one section
// for all of its items. Lock order is always: shard locks in ascending shard
// index, then the core mutex.
package server

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/job"
	"venn/internal/obs"
	"venn/internal/sched"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/tsdb"
)

// Errors returned by the manager. ErrDeviceBusy, ErrUnknownDevice and
// ErrRegistryFull reach a caller as a batch item's Error, which carries their
// message.
var (
	ErrUnknownJob      = errors.New("server: unknown job")
	ErrUnknownCategory = errors.New("server: requirement must be one of the configured categories")
	ErrDeviceBusy      = errors.New("server: device already has a task today")
	ErrUnknownDevice   = errors.New("server: unknown device")
	// ErrRegistryFull refuses a new device whose ID would end past the 4 GiB
	// a registry shard's ID arena can address.
	ErrRegistryFull = errors.New("server: device registry shard has no room for the ID")
	// ErrBadDuration refuses a report whose duration_seconds is NaN, ±Inf or
	// negative; ErrBadTaskScale refuses such a job task_scale.
	ErrBadDuration  = errors.New("server: duration_seconds must be a finite non-negative number")
	ErrBadTaskScale = errors.New("server: task_scale must be a finite non-negative number")
	// ErrBadDemand refuses a job whose demand_per_round × rounds exceeds
	// math.MaxInt32: the schedulers order jobs by that product (remaining
	// service) in an int, and a larger one can wrap.
	ErrBadDemand       = errors.New("server: demand_per_round × rounds must not exceed 2147483647")
	errDeviceIDMissing = errors.New("server: device_id required")
)

// MaxBatch bounds the number of items one batch request may carry.
const MaxBatch = 8192

// defaultShards is the device-state lock striping factor. 64 comfortably
// exceeds the core counts this runs on, so two concurrent check-ins almost
// never hash to the same stripe.
const defaultShards = 64

// JobSpec is a job registration request.
type JobSpec struct {
	Name           string  `json:"name"`
	Category       string  `json:"category"` // one of the configured requirement names
	DemandPerRound int     `json:"demand_per_round"`
	Rounds         int     `json:"rounds"`
	TaskScale      float64 `json:"task_scale,omitempty"`
}

// JobStatus is the externally visible job state.
type JobStatus struct {
	ID              int     `json:"id"`
	Name            string  `json:"name"`
	Category        string  `json:"category"`
	State           string  `json:"state"`
	Round           int     `json:"round"`
	Rounds          int     `json:"rounds"`
	DemandPerRound  int     `json:"demand_per_round"`
	Assigned        int     `json:"assigned"`
	Responses       int     `json:"responses"`
	CompletedRounds int     `json:"completed_rounds"`
	JCTSeconds      float64 `json:"jct_seconds,omitempty"`
}

// CheckIn is a device's availability announcement.
type CheckIn struct {
	DeviceID string  `json:"device_id"`
	CPU      float64 `json:"cpu"` // normalized [0,1]
	Mem      float64 `json:"mem"` // normalized [0,1]
}

// Assignment is the manager's reply to a check-in. The unassigned reply is
// the empty object: at load-test rates the overwhelmingly common answer is
// "no work", and omitting the false flag meaningfully shrinks batch
// responses (absent fields decode to their zero values in every client).
type Assignment struct {
	Assigned bool   `json:"assigned,omitempty"`
	JobID    int    `json:"job_id,omitempty"`
	JobName  string `json:"job_name,omitempty"`
	Round    int    `json:"round,omitempty"`
}

// CheckInResult is one element of a batch check-in reply. Error is set when
// that item was rejected (busy device, missing device_id); the other items
// of the batch are unaffected.
type CheckInResult struct {
	Assignment
	Error string `json:"error,omitempty"`
}

// Report is a device's end-of-task message.
type Report struct {
	DeviceID        string  `json:"device_id"`
	JobID           int     `json:"job_id"`
	OK              bool    `json:"ok"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// ReportResult is one element of a batch report reply.
type ReportResult struct {
	Error string `json:"error,omitempty"`
}

// Batch wire types shared by the HTTP layer and the client SDK.
type (
	// CheckInBatchRequest is the POST /v1/checkin/batch payload.
	CheckInBatchRequest struct {
		CheckIns []CheckIn `json:"checkins"`
	}
	// CheckInBatchResponse is its reply; Results[i] answers CheckIns[i].
	CheckInBatchResponse struct {
		Results []CheckInResult `json:"results"`
	}
	// ReportBatchRequest is the POST /v1/report/batch payload.
	ReportBatchRequest struct {
		Reports []Report `json:"reports"`
	}
	// ReportBatchResponse is its reply; Results[i] answers Reports[i].
	ReportBatchResponse struct {
		Results []ReportResult `json:"results"`
	}
)

// Config parameterizes the manager.
type Config struct {
	// Categories are the requirement strata jobs may ask for. Defaults
	// to the four standard strata.
	Categories []device.Requirement
	// Policy names the scheduler, resolved by sched.ByName ("venn",
	// "fifo", "srsf", "random"); empty means "venn". Unknown names panic in
	// NewManager — the daemon validates its -policy flag the same way first.
	Policy string
	// Seed seeds the scheduling environment's RNG (the Random policy's
	// priority stream); 0 derives a seed from the clock. Fixing it makes
	// seeded-traffic replays reproducible.
	Seed int64
	// Options are scheduler options for the Venn policy family; a zero
	// Tiers takes core.New's default and every other field is kept.
	Options core.Options
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// Shards is the device-state lock striping factor (default 64; 1
	// reproduces the former single-lock behavior for baselines).
	Shards int
	// DeviceTTL evicts devices that have not checked in for this long
	// (swept incrementally by Tick), bounding registry growth under fleet
	// churn. 0 disables eviction (the library default; venndaemon enables
	// it with a 24h default). Applies to busy devices too: a reservation
	// a full TTL old belongs to a device that crashed mid-task.
	DeviceTTL time.Duration
	// DisableDailyBudget lifts the one-task-per-device-per-day realism
	// constraint. Load benchmarks set it so a demand-heavy run exercises
	// sustained assignment traffic instead of exhausting the fleet's
	// budgets in the first seconds.
	DisableDailyBudget bool
	// ObsSampleEvery sets the request-span sampling rate: 1 in N served
	// requests carries a full per-stage span, a trace ID, and a flight-
	// recorder entry (internal/obs). 0 takes obs.DefaultSampleEvery; a
	// negative value disables spans entirely (the always-on per-op total
	// histograms keep recording either way).
	ObsSampleEvery int
}

// Manager is the live resource manager. All methods are safe for concurrent
// use.
type Manager struct {
	// mu guards the scheduler core: venn, env, jobs, deadlines, completed,
	// completedJCT, coreDev, and the lifecycle counters. Device state lives
	// in reg.
	mu sync.Mutex

	cfg        Config
	start      time.Time
	categories map[string]device.Requirement
	// pol is the primary scheduling policy; every lifecycle event and
	// assignment decision goes through it. venn aliases it when the
	// primary is the Venn core — the lock-free snapshot fast path and the
	// plan telemetry are Venn-specific and disabled (nil) otherwise.
	policyName string
	pol        sim.Scheduler
	venn       *core.Venn
	env        *sim.Env

	jobs      map[job.ID]*managedJob
	nextJob   job.ID
	completed []*managedJob
	// completedJCT sums the completed jobs' JCTs in seconds, added in
	// completion order, so a metrics scrape reads the mean in O(1) and gets
	// the value a walk of completed would sum to.
	completedJCT float64

	// reg is the device registry: sharded device state, admission, TTL.
	reg *registry
	// coreDev is the device view handed to the policy during one core-op
	// item, materialised from the item's slot and scores; the policy never
	// retains it.
	coreDev device.Device

	// lockFreeOK gates the snapshot-probe fast path; false when the
	// primary policy is not the Venn core (only Venn publishes plan
	// snapshots that prove a device idle).
	lockFreeOK bool
	// checkIns counts admitted check-ins; atomic because the fast path
	// bumps it without the core mutex.
	checkIns atomic.Int64
	// lockFreeCheckIns counts check-ins answered purely from a plan
	// snapshot, never entering the core mutex (observability).
	lockFreeCheckIns atomic.Int64
	// pendingSupply[c] accumulates check-in counts for grid cell c until a
	// core section drains them into the TSDB (see drainSupplyLocked).
	pendingSupply []atomic.Int64
	// supplyDirty is set (after the cell counter add) whenever pendingSupply
	// holds undrained counts; drainSupplyLocked skips its per-cell scan when
	// clear, so no-op core sections pay one atomic swap instead of an
	// O(cells) walk.
	supplyDirty atomic.Bool

	// deadlines holds the at-time per collecting job; checked by Tick and
	// opportunistically on the serving paths. deadlineDue mirrors a lower
	// bound on the earliest entry, encoded as at+1 (0 = none armed), so the
	// common no-deadline-due case is one atomic load and no map access.
	// Removals leave it stale-low, which at worst costs one extra scan,
	// never a missed expiry.
	deadlines   map[job.ID]simtime.Time
	deadlineDue atomic.Int64

	// Core section telemetry (lockCore): the sections that took the core
	// mutex at once and those that waited for it, and the waits. They feed
	// /v1/metrics (core_fastpath_ops, core_combined_ops, core_wait_ns).
	coreFast   atomic.Int64
	coreWaited atomic.Int64
	coreWait   obs.Hist
	// coreHeldSince is the UnixNano at which the current core section took
	// the core mutex (0 when free); Health reads it to detect a wedged core.
	coreHeldSince atomic.Int64

	// Cumulative counters (guarded by mu; all mutated in core sections).
	assignments, reports, failures, aborts int

	// routerBox and streamBox hold the two attached layers: the federation
	// (routing, topology, federation counters) and the stream server (topology
	// pushes, stream counters). Atomic, because every serving-path request
	// loads the router, and so that no telemetry read waits for the core.
	routerBox attachment[Router]
	streamBox attachment[StreamServer]

	// obs is the request-path observability registry: per-op total
	// histograms (always on), sampled per-stage histograms, trace IDs, and
	// the flight recorder. Immutable after NewManager.
	obs *obs.Registry
}

// attachment holds one attached layer behind an atomic pointer.
type attachment[T comparable] struct{ p atomic.Pointer[T] }

func (a *attachment[T]) set(v T) { a.p.Store(&v) }

// clear detaches v if it is still the attached value; a newer attachment is
// left in place.
func (a *attachment[T]) clear(v T) {
	if cur := a.p.Load(); cur != nil && *cur == v {
		a.p.CompareAndSwap(cur, nil)
	}
}

// load returns the attached value, or the zero T when none is attached.
func (a *attachment[T]) load() (v T) {
	if p := a.p.Load(); p != nil {
		v = *p
	}
	return v
}

// SetRouter attaches a federation layer: from then on the Service layer's
// CheckIn/Report entry points (single and batch) route through it, Topology
// serves its topology, and /v1/metrics and Health carry its counters. Pass
// the routing decision to the Local variants to bypass it.
func (m *Manager) SetRouter(r Router) { m.routerBox.set(r) }

// ClearRouter detaches r — routing, topology and telemetry together — if it
// is still the attached router (a newer attachment is left in place).
func (m *Manager) ClearRouter(r Router) { m.routerBox.clear(r) }

// router returns the attached federation router, or nil.
func (m *Manager) router() Router { return m.routerBox.load() }

// StreamServer is the stream transport as the Manager sees it. Both methods
// are called without the core mutex and must not call back into the Manager.
type StreamServer interface {
	// StreamTelemetry snapshots the transport's counters for /v1/metrics.
	StreamTelemetry() StreamTelemetry
	// PushTopology sends an unsolicited topology frame to every connection
	// that has fetched the topology and returns how many it was handed to.
	PushTopology(TopologyInfo) int
}

// SetStreamServer attaches the stream server whose counters /v1/metrics
// reports and through which topology changes are pushed.
func (m *Manager) SetStreamServer(s StreamServer) { m.streamBox.set(s) }

// ClearStreamServer detaches s if it is still the attached server, so a
// shut-down stream server neither pins its memory nor keeps reporting frozen
// counters; a newer attachment is left in place.
func (m *Manager) ClearStreamServer(s StreamServer) { m.streamBox.clear(s) }

// TopologyInfo is the federation topology an attached cluster publishes for
// ring-aware clients: the live member set, the vnode count, and the epoch
// the set was published at. Members must be sorted; together with VNodes it
// lets a client rebuild the exact ownership ring via hashring.New.
type TopologyInfo struct {
	Epoch   uint64
	VNodes  int
	Members []string
}

// Topology returns the attached federation's current topology, served to
// ring-aware clients over OpTopology; ok is false when standalone.
func (m *Manager) Topology() (info TopologyInfo, ok bool) {
	if r := m.router(); r != nil {
		return r.Topology(), true
	}
	return info, false
}

// NotifyTopologyChanged fans a fresh topology out to subscribed stream
// connections through the attached stream server (a no-op returning 0
// without one). The attached cluster calls it whenever its live membership —
// and thus the epoch — changes.
func (m *Manager) NotifyTopologyChanged(info TopologyInfo) int {
	if s := m.streamBox.load(); s != nil {
		return s.PushTopology(info)
	}
	return 0
}

type managedJob struct {
	spec JobSpec
	j    *job.Job
	// inFlight holds the devices working on the current attempt, keyed by
	// their registry device number (slot.dev). It decides staleness: every
	// attempt end clears it, which bounds its memory, so an entry is always
	// a task of j.Attempt() and a report that finds none is dropped before
	// the job sees it. It is presized at registration, so an assignment or
	// report allocates nothing, and dropped when the job finishes: completed
	// keeps every finished job.
	inFlight map[int32]inFlightTask
}

// inFlightTask is one device's task: the clamped scores the device was
// assigned with, which its report hands the policy.
type inFlightTask struct {
	cpu, mem float64
}

// supplyWindow is the window the manager averages device check-ins over to
// estimate supply (§4.4), the offline engine's default.
const supplyWindow = 24 * simtime.Hour

// NewManager constructs a live manager.
func NewManager(cfg Config) *Manager {
	if len(cfg.Categories) == 0 {
		cfg.Categories = device.Categories()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	if cfg.Policy == "" {
		cfg.Policy = "venn"
	}
	pol, ok := sched.ByName(cfg.Policy, cfg.Options)
	if !ok {
		panic(fmt.Sprintf("server: unknown policy %q (have %s)", cfg.Policy, strings.Join(sched.Names, ", ")))
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Clock().UnixNano()
	}
	m := &Manager{
		cfg:        cfg,
		start:      cfg.Clock(),
		categories: make(map[string]device.Requirement, len(cfg.Categories)),
		policyName: strings.ToLower(cfg.Policy),
		pol:        pol,
		jobs:       make(map[job.ID]*managedJob),
		deadlines:  make(map[job.ID]simtime.Time),
		obs:        obs.NewRegistry(cfg.ObsSampleEvery),
	}
	// The snapshot fast path and plan telemetry need the concrete core.
	m.venn, _ = m.pol.(*core.Venn)
	for _, c := range cfg.Categories {
		m.categories[c.Name] = c
	}
	grid := device.NewGrid(cfg.Categories)
	if grid.NumCells() > maxCells {
		panic(fmt.Sprintf("server: the categories cut the score plane into %d grid cells; a registry slot indexes at most %d",
			grid.NumCells(), maxCells))
	}
	m.reg = newRegistry(cfg.Shards, grid, !cfg.DisableDailyBudget)
	m.env = &sim.Env{
		Grid:          grid,
		DB:            tsdb.New(grid.NumCells(), supplyWindow, simtime.Hour),
		CellPriorRate: make([]float64, grid.NumCells()),
		Jobs:          make(map[job.ID]*job.Job),
		RNG:           stats.NewRNG(seed),
	}
	m.pol.Bind(m.env)
	m.pendingSupply = make([]atomic.Int64, grid.NumCells())
	m.lockFreeOK = m.venn != nil
	return m
}

// PolicyName reports the scheduling policy's name, lower-cased.
func (m *Manager) PolicyName() string { return m.policyName }

// coreWedgeAfter is how long one core section may hold the core mutex
// before Health declares the core wedged. Real sections hold it for
// microseconds; seconds means a stuck policy or a deadlock.
const coreWedgeAfter = 5 * time.Second

// HealthStatus is the GET /v1/healthz payload. OK mirrors the HTTP status
// (200 when true, 503 when false); the other fields say why.
type HealthStatus struct {
	OK            bool    `json:"ok"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// CoreHeldSeconds is how long the current core section's mutex hold has
	// lasted (0 when the core is free); past coreWedgeAfter the daemon is
	// unhealthy.
	CoreHeldSeconds float64 `json:"core_held_seconds,omitempty"`
	// PeersUp/PeersDown mirror the federation peer states; absent when
	// standalone. A federated daemon with every peer down is degraded but
	// still serves (local fallbacks), so peers alone never flip OK — the
	// detail string surfaces them for operators.
	PeersUp   int    `json:"peers_up,omitempty"`
	PeersDown int    `json:"peers_down,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// Health evaluates daemon liveness in one place: the core commit path
// must not be wedged (one mutex hold exceeding coreWedgeAfter), and
// federation peer health is surfaced alongside. Every health surface —
// /v1/healthz, the venndaemon -log-metrics line — derives from this. It takes
// no manager lock, so it still answers while the core is wedged.
func (m *Manager) Health() HealthStatus {
	h := HealthStatus{OK: true, UptimeSeconds: float64(m.now()) / 1000}
	if since := m.coreHeldSince.Load(); since != 0 {
		held := time.Since(time.Unix(0, since))
		if held > 0 {
			h.CoreHeldSeconds = held.Seconds()
		}
		if held > coreWedgeAfter {
			h.OK = false
			h.Detail = "core commit pipeline wedged"
		}
	}
	if r := m.router(); r != nil {
		ct := r.ClusterTelemetry()
		h.PeersUp, h.PeersDown = ct.ClusterPeersUp, ct.ClusterPeersDown
		if h.PeersDown > 0 && h.Detail == "" {
			h.Detail = fmt.Sprintf("%d federation peer(s) down", h.PeersDown)
		}
	}
	return h
}

// now maps wall-clock to manager-relative simulated time.
func (m *Manager) now() simtime.Time {
	return simtime.Time(simtime.FromStd(m.cfg.Clock().Sub(m.start)))
}

// nowSec is the wall-clock second the registry stamps on a device it sees.
func (m *Manager) nowSec() int64 { return m.cfg.Clock().Unix() }

// RegisterJob admits a new CL job and opens its first-round request, in a
// core section of its own.
func (m *Manager) RegisterJob(spec JobSpec) (JobStatus, error) {
	req, ok := m.categories[spec.Category]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownCategory, spec.Category)
	}
	if spec.DemandPerRound < 1 || spec.Rounds < 1 {
		return JobStatus{}, errors.New("server: demand and rounds must be positive")
	}
	if spec.DemandPerRound > math.MaxInt32/spec.Rounds {
		return JobStatus{}, ErrBadDemand
	}
	// A task_scale scales the job's per-device task duration: NaN, ±Inf and
	// negative ones are refused (0 keeps the default).
	if !finiteNonNegative(spec.TaskScale) {
		return JobStatus{}, ErrBadTaskScale
	}
	now := m.lockCore(nil) // its supply drain feeds the arrival estimate
	defer m.unlockCore()
	id := m.nextJob
	m.nextJob++
	j := job.New(id, req, spec.DemandPerRound, spec.Rounds, now)
	if spec.TaskScale > 0 {
		j.TaskScale = spec.TaskScale
	}
	if spec.Name != "" {
		j.Name = spec.Name
	}
	// An attempt assigns at most DemandPerRound devices; MaxBatch caps the
	// presize so a huge demand cannot reserve a huge table up front.
	mj := &managedJob{spec: spec, j: j, inFlight: make(map[int32]inFlightTask, min(spec.DemandPerRound, MaxBatch))}
	m.jobs[id] = mj
	m.env.Jobs[id] = j

	j.Start(now)
	m.pol.OnJobArrival(j, now)
	m.pol.OnRequest(j, now)
	return m.statusLocked(mj), nil
}

// finiteNonNegative reports whether f is a number in [0, +Inf).
func finiteNonNegative(f float64) bool { return f >= 0 && !math.IsInf(f, 1) }

// lockCore opens a core section, the one path every core mutation (an
// assignment batch, a report batch, a job arrival, a plan refresh) commits
// through: it takes the core mutex, counting whether it had to wait, and runs
// the section preamble (supply drain, deadline expiry). It returns the
// section's time. A wait lands in core_wait_ns and on sp's queue_wait stage.
func (m *Manager) lockCore(sp *obs.Span) simtime.Time {
	if m.mu.TryLock() {
		m.coreFast.Add(1)
	} else {
		t0 := time.Now()
		m.mu.Lock()
		wait := time.Since(t0)
		m.coreWaited.Add(1)
		m.coreWait.Observe(int64(wait))
		sp.Mark(obs.StageQueueWait, wait)
	}
	m.coreHeldSince.Store(time.Now().UnixNano())
	now := m.now()
	m.drainSupplyLocked(now)
	m.expireDueLocked(now)
	return now
}

// unlockCore closes a core section. It first republishes the plan if the
// section left it stale, so trailing check-ins keep the lock-free surplus
// path instead of entering the core one by one.
func (m *Manager) unlockCore() {
	if m.lockFreeOK && !m.venn.PlanFresh() {
		m.venn.RefreshPlan(m.now())
	}
	m.coreHeldSince.Store(0)
	m.mu.Unlock()
}

// refreshPlan republishes a stale plan in a core section of its own.
func (m *Manager) refreshPlan() {
	m.lockCore(nil)
	m.unlockCore()
}

// countCheckIns records n admitted check-ins, lockFree of them answered from
// the plan snapshot, without the core mutex: the cumulative counters and the
// pending supply history per grid cell (supply[c] check-ins in cell c, zeroed
// here). A batch calls it once, before its core section, so the section's
// supply drain sees the whole batch.
func (m *Manager) countCheckIns(n, lockFree int, supply []int64) {
	if n == 0 {
		return
	}
	m.checkIns.Add(int64(n))
	if lockFree > 0 {
		m.lockFreeCheckIns.Add(int64(lockFree))
	}
	for c, k := range supply {
		if k > 0 {
			m.pendingSupply[c].Add(k)
			supply[c] = 0
		}
	}
	// Flag after the adds: a drain that swaps the flag observes every count
	// whose flag-set it raced, and a count it misses re-flags for the next
	// drain.
	m.supplyDirty.Store(true)
}

// drainSupplyLocked flushes the pending per-cell check-in counts into the
// TSDB. Called at the start of every core critical section (and from Tick),
// so supply estimates lag true check-in times by at most a tick — noise at
// the 24-hour averaging window the scheduler reads. The dirty flag makes
// the no-pending case one atomic swap instead of an O(cells) scan.
func (m *Manager) drainSupplyLocked(now simtime.Time) {
	if !m.supplyDirty.Swap(false) {
		return
	}
	for c := range m.pendingSupply {
		if n := m.pendingSupply[c].Swap(0); n > 0 {
			m.env.DB.RecordCheckIns(device.CellID(c), int(n), now)
		}
	}
}

// snapshotSaysIdle reports whether the published plan snapshot proves the
// device would leave the scheduler empty-handed, in which case the check-in
// can be answered without the core mutex. A true answer requires the
// snapshot to be fresh: every lifecycle event marks the plan stale before
// its effects land, and the core republishes before clearing the flag, so
// the freshness check (first) and snapshot load (second) bracket a provably
// current view. Devices with a candidate — and any check-in racing a plan
// refresh — fall back to the locked path.
func (m *Manager) snapshotSaysIdle(s *slot, cpu, mem float64, now simtime.Time) bool {
	if !m.lockFreeOK || !m.venn.PlanFresh() {
		return false
	}
	snap := m.venn.PlanSnapshot()
	if snap == nil {
		return false
	}
	d := s.device(cpu, mem)
	return !snap.HasCandidate(&d, device.CellID(s.cell), now)
}

// assignItem is one check-in of a batch that enters the core: its slot, its
// clamped scores, and its index in the batch.
type assignItem struct {
	s        *slot
	cpu, mem float64
	i        int
}

// assignCoreLocked runs the short scheduler critical section for one
// admitted check-in. The caller holds both the device's shard mutex and the
// core mutex; the device stays reserved on assignment and the caller frees
// it otherwise.
func (m *Manager) assignCoreLocked(it *assignItem, now simtime.Time) Assignment {
	s := it.s
	m.coreDev = s.device(it.cpu, it.mem)
	j := m.pol.Assign(&m.coreDev, now)
	if j == nil {
		return Assignment{Assigned: false}
	}
	out := j.Assign(&m.coreDev, now)
	mj := m.jobs[j.ID]
	s.lastTaskDay = int32(now.DayIndex())
	mj.inFlight[s.dev] = inFlightTask{cpu: it.cpu, mem: it.mem}
	m.assignments++
	m.settleLocked(mj, out, now)
	return Assignment{Assigned: true, JobID: int(j.ID), JobName: j.Name, Round: j.Round()}
}

// CheckInBatchBuf processes the batch of check-ins in buf.CheckIns; result
// i answers check-in i. Shard-local admission runs per device stripe; each
// admitted device is then probed against the lock-free plan snapshot, and
// only the devices with a potential assignment enter the single core
// critical section. In a surplus fleet (no open requests the device could
// serve) a whole batch completes without ever touching the scheduler lock.
// sp is the request's observability span (nil when unsampled; a batch that
// enters the core attributes its wait for the core mutex and its apply time
// to it). The results and the core section's items live in buf's storage
// (see BatchBuf for how long the results stay valid). Every check-in this
// node applies commits here.
func (m *Manager) CheckInBatchBuf(buf *BatchBuf, sp *obs.Span) []CheckInResult {
	cis, out := buf.CheckIns, buf.CheckInSlots(len(buf.CheckIns))
	if len(cis) == 0 {
		return out
	}
	sc := m.reg.scratch(len(cis))
	for i := range cis {
		if id := cis[i].DeviceID; id != "" {
			m.reg.mark(sc, i, id)
		}
	}
	m.reg.lockMarked(sc, true)
	defer m.reg.unlockMarked(sc)

	now := m.now()
	nowSec := m.nowSec()
	// If churn left the plan stale, pay one refresh up front so the whole
	// batch probes a fresh snapshot instead of entering the core for items
	// the plan would prove idle.
	if m.lockFreeOK && !m.venn.PlanFresh() {
		m.refreshPlan()
	}
	m.reg.touch(sc)
	day := now.DayIndex()
	admitted, lockFree := 0, 0
	buf.assigns = buf.assigns[:0]
	for i := range cis {
		ci := &cis[i]
		sh := sc.shard[i]
		if sh == nil {
			out[i].Error = errDeviceIDMissing.Error()
			continue
		}
		// Clamp exactly like device.New: raw wire values can be negative or
		// NaN, and an unclamped score would put the device in an out-of-range
		// cell.
		cpu, mem := device.Clamp01(ci.CPU), device.Clamp01(ci.Mem)
		s, err := m.reg.admit(sh, sc.hash[i], ci.DeviceID, cpu, mem, day, nowSec)
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		if s == nil {
			continue // daily budget: Assigned=false, no error
		}
		sc.slots[i] = s
		admitted++
		sc.supply[s.cell]++
		// The probe re-checks freshness per item: a concurrent batch may
		// fulfil a request (or a job may register) mid-loop.
		if m.snapshotSaysIdle(s, cpu, mem, now) {
			lockFree++
			continue
		}
		if len(buf.assigns) == cap(buf.assigns) {
			// Room for every item left: a fresh BatchBuf grows once a batch.
			buf.assigns = slices.Grow(buf.assigns, len(cis)-i)
		}
		buf.assigns = append(buf.assigns, assignItem{s: s, cpu: cpu, mem: mem, i: i})
	}
	m.countCheckIns(admitted, lockFree, sc.supply)

	if items := buf.assigns; len(items) > 0 {
		now := m.lockCore(sp)
		t0 := spanClock(sp)
		assigned := 0
		for k := range items {
			if a := m.assignCoreLocked(&items[k], now); a.Assigned {
				out[items[k].i].Assignment = a
				assigned++
			}
		}
		if sp != nil {
			sp.Mark(obs.StageApply, time.Since(t0))
		}
		m.unlockCore()
		m.reg.busy.Add(int64(assigned))
	}
	for i, s := range sc.slots {
		if s != nil && !out[i].Assigned {
			s.flags &^= slotBusy
		}
	}
	return out
}

// reportCoreLocked applies one report to the scheduler core. The caller
// holds the core mutex (and the device's shard mutex).
func (m *Manager) reportCoreLocked(r *Report, s *slot, now simtime.Time) {
	mj, ok := m.jobs[job.ID(r.JobID)]
	if !ok {
		// Job finished meanwhile; the report is stale but harmless.
		return
	}
	task, working := mj.inFlight[s.dev]
	if !working {
		return // stale: the device's attempt ended
	}
	delete(mj.inFlight, s.dev)
	out := mj.j.Report(mj.j.Attempt(), r.OK, now)
	if r.OK {
		m.reports++
		m.coreDev = s.device(task.cpu, task.mem)
		m.pol.ObserveResponse(mj.j, &m.coreDev, simtime.FromSeconds(r.DurationSeconds), now)
	} else {
		m.failures++
	}
	m.settleLocked(mj, out, now)
}

// ReportBatch processes a batch of reports with a single scheduler-lock
// acquisition; Results[i] answers Reports[i].
func (m *Manager) ReportBatch(rs []Report) []ReportResult {
	return m.ReportBatchBuf(&BatchBuf{Reports: rs}, nil)
}

// ReportBatchBuf is ReportBatch of buf.Reports carrying the request's span,
// over buf's storage (see CheckInBatchBuf). Every report this node applies
// commits here.
func (m *Manager) ReportBatchBuf(buf *BatchBuf, sp *obs.Span) []ReportResult {
	rs, out := buf.Reports, buf.ReportSlots(len(buf.Reports))
	if len(rs) == 0 {
		return out
	}
	sc := m.reg.scratch(len(rs))
	for i := range rs {
		switch {
		case !finiteNonNegative(rs[i].DurationSeconds):
			// The duration feeds the job's response profile: a NaN, ±Inf or
			// negative one is refused before the registry sees the report.
			out[i].Error = ErrBadDuration.Error()
		case rs[i].DeviceID == "":
			out[i].Error = errDeviceIDMissing.Error()
		default:
			m.reg.mark(sc, i, rs[i].DeviceID)
		}
	}
	m.reg.lockMarked(sc, false)
	defer m.reg.unlockMarked(sc)

	m.reg.touch(sc)
	accepted, freed := 0, 0
	for i := range rs {
		sh := sc.shard[i]
		if sh == nil {
			continue // refused above
		}
		s, _ := sh.find(sc.hash[i], rs[i].DeviceID)
		if s == nil {
			out[i].Error = ErrUnknownDevice.Error()
			continue
		}
		if s.flags&slotBusy != 0 {
			s.flags &^= slotBusy
			freed++
		}
		sc.slots[i] = s
		accepted++
	}
	if accepted > 0 {
		m.reg.busy.Add(int64(-freed))
		now := m.lockCore(sp)
		t0 := spanClock(sp)
		for i, s := range sc.slots {
			if s != nil {
				m.reportCoreLocked(&rs[i], s, now)
			}
		}
		if sp != nil {
			sp.Mark(obs.StageApply, time.Since(t0))
		}
		m.unlockCore()
	}
	return out
}

// settleLocked turns the outcome of one of mj's lifecycle events into policy
// callbacks, deadline arming and the manager's counters.
func (m *Manager) settleLocked(mj *managedJob, out job.Outcome, now simtime.Time) {
	j := mj.j
	if out&job.Fulfilled != 0 {
		m.pol.OnRequestFulfilled(j, now)
		if out&job.RoundDone == 0 {
			m.setDeadlineLocked(j.ID, now.Add(j.Deadline()))
		}
	}
	if out&(job.RoundDone|job.Aborted) == 0 {
		return
	}
	if out&job.Aborted != 0 {
		m.aborts++
	}
	delete(m.deadlines, j.ID)
	clear(mj.inFlight) // the attempt is over
	if out&job.JobDone != 0 {
		mj.inFlight = nil
		m.pol.OnJobDone(j, now)
		m.completed = append(m.completed, mj)
		m.completedJCT += j.JCT().Seconds()
		delete(m.jobs, j.ID)
		return
	}
	m.pol.OnRequest(j, now)
}

// setDeadlineLocked records a collecting job's response deadline and keeps
// deadlineDue a lower bound on the earliest entry.
func (m *Manager) setDeadlineLocked(id job.ID, at simtime.Time) {
	m.deadlines[id] = at
	if due := m.deadlineDue.Load(); due == 0 || int64(at)+1 < due {
		m.deadlineDue.Store(int64(at) + 1)
	}
}

// expireDueLocked is the O(1) fast path around deadline expiry: the full
// scan only runs when the earliest recorded deadline can actually be due,
// and the bound is one atomic load. Removals leave deadlineDue stale-low,
// which at worst triggers one extra scan, never a missed expiry.
func (m *Manager) expireDueLocked(now simtime.Time) {
	due := m.deadlineDue.Load()
	if due == 0 || int64(now) < due-1 {
		return
	}
	if len(m.deadlines) == 0 {
		m.deadlineDue.Store(0) // removals left the bound stale; disarm
		return
	}
	m.expireDeadlinesLocked(now)
}

// expireDeadlinesLocked applies every response deadline that passed and
// recomputes the earliest remaining one. An entry is always the current
// attempt's: settleLocked removes it when the attempt ends.
func (m *Manager) expireDeadlinesLocked(now simtime.Time) {
	for id, at := range m.deadlines {
		if now >= at {
			mj := m.jobs[id]
			m.settleLocked(mj, mj.j.Expire(mj.j.Attempt(), now), now)
		}
	}
	earliest := simtime.Time(0)
	first := true
	for _, at := range m.deadlines {
		if first || at < earliest {
			earliest, first = at, false
		}
	}
	if first {
		m.deadlineDue.Store(0)
	} else {
		m.deadlineDue.Store(int64(earliest) + 1)
	}
}

// Tick runs the periodic maintenance: TTL eviction of idle devices,
// draining the pending supply counters, and deadline expiry. Call it
// periodically (the HTTP server does, once a second).
func (m *Manager) Tick() {
	m.sweepExpiredDevices() // shard locks only — before the core mutex
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	m.drainSupplyLocked(now)
	m.expireDueLocked(now)
}

// sweepExpiredDevices evicts, from a rotating fraction of the registry's
// shards, the devices not seen within Config.DeviceTTL.
//
// Busy devices are evicted too once their last check-in is a full TTL in
// the past: a reservation that old belongs to a device that crashed
// mid-task (task deadlines are minutes, the TTL is hours), and exempting it
// would leak exactly the registry growth the TTL exists to cap. A
// straggler's late report gets ErrUnknownDevice, which the agent protocol
// already tolerates.
func (m *Manager) sweepExpiredDevices() {
	ttl := m.cfg.DeviceTTL
	if ttl <= 0 {
		return
	}
	m.reg.sweep(m.cfg.Clock().Add(-ttl).Unix())
}

// JobStatusByID returns the status of an active or completed job.
func (m *Manager) JobStatusByID(id int) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mj, ok := m.jobs[job.ID(id)]; ok {
		return m.statusLocked(mj), nil
	}
	for _, mj := range m.completed {
		if int(mj.j.ID) == id {
			return m.statusLocked(mj), nil
		}
	}
	return JobStatus{}, ErrUnknownJob
}

// Jobs returns the statuses of all jobs (active first, then completed).
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.jobs)+len(m.completed))
	for _, mj := range m.jobs {
		out = append(out, m.statusLocked(mj))
	}
	for _, mj := range m.completed {
		out = append(out, m.statusLocked(mj))
	}
	return out
}

func (m *Manager) statusLocked(mj *managedJob) JobStatus {
	j := mj.j
	st := JobStatus{
		ID:              int(j.ID),
		Name:            j.Name,
		Category:        j.Requirement.Name,
		State:           j.State().String(),
		Round:           j.Round(),
		Rounds:          j.Rounds,
		DemandPerRound:  j.Demand,
		Assigned:        j.AttemptAssigned(),
		Responses:       j.AttemptResponses(),
		CompletedRounds: j.CompletedRounds(),
	}
	if j.Done() {
		st.JCTSeconds = j.JCT().Seconds()
	}
	return st
}

// StatsSnapshot moves the pending supply into the scheduler's history, then
// returns MetricsSnapshot. Nothing in the daemon calls it: the benchmark's
// replay reads CompletedJobs through it once per step, and its exact-on-seed
// JCT depends on when supply reaches the history.
func (m *Manager) StatsSnapshot() Metrics {
	m.mu.Lock()
	m.drainSupplyLocked(m.now())
	m.mu.Unlock()
	return m.MetricsSnapshot()
}

// Package cluster federates several venndaemons into one serving fleet.
// Device ownership is sharded across the member daemons by a consistent-hash
// ring (internal/hashring — FNV-1a over the device ID, unseeded so that
// every member and client derives the same owner; the manager's registry
// stripes use seeded hash/maphash, private to one process). The items of a
// batch that lands on a non-owner are forwarded peer-to-peer, one hop frame
// per owner, over the persistent framed stream transport (internal/transport)
// using the multiplexing client.StreamClient pool — any daemon can accept any
// check-in or report batch.
// Ring-aware clients (client.WithTopology) fetch the same ring over
// OpTopology and partition their batches before sending, so on the common
// path nothing needs forwarding at all.
//
// Membership is static configuration: every member is told the full member
// list (venndaemon -peers) and identifies itself by its published stream
// address (-node-id, defaulting to -stream-addr). A lightweight health loop
// pings each peer periodically; a peer that misses FailAfter consecutive
// probes is marked down and forwarding to it falls back to applying the
// request locally, so a dead peer degrades ownership locality instead of
// erroring requests. The ring plus the alive-peer table is published as an
// immutable snapshot behind an atomic pointer — the routing decision on the
// serving hot path is lock-free, mirroring the scheduler's PlanSnapshot
// pattern.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"venn/internal/client"
	"venn/internal/hashring"
	"venn/internal/server"
)

// Defaults for Config.
const (
	DefaultHealthInterval = time.Second
	DefaultFailAfter      = 3
	DefaultTimeout        = 5 * time.Second
)

// PeerClient is the slice of the stream-client surface forwarding needs: a
// health probe and one hop sender. *client.StreamClient implements it; tests
// inject fakes through Config.Dial.
//
// ForwardRaw sends one hop frame of serving opcode op (check-in, report, or
// their batch forms) carrying payload, the request's v2 encoding — for a
// batch, the count prefix followed by the items' wire bytes. payload is
// written out and still the caller's afterwards; dec is handed the owner's
// reply payload, which is recycled when it returns. An owner's rejection
// comes back as a *client.StreamError.
//
// trace is the originating request's sampled span ID (0 when unsampled): a
// nonzero trace rides in the hop frame's trace context so the owner records
// the hop under the same trace ID (see internal/obs).
type PeerClient interface {
	Ping() error
	ForwardRaw(op byte, payload []byte, trace uint64, dec func(reply []byte) error) error
	Close() error
}

// Config parameterizes a federation member.
type Config struct {
	// SelfID is this daemon's member ID — the stream address its peers dial,
	// exactly as it appears in every member's Peers list.
	SelfID string
	// Peers lists the stream addresses of every cluster member — the full
	// membership, SelfID's own entry included (order is irrelevant; an
	// empty list runs a single-member cluster). New rejects a non-empty
	// list that lacks SelfID: a self-ID spelled differently from its peers
	// entry (":8081" vs "10.0.0.1:8081") would silently put a phantom
	// member on the ring, splitting ownership of its arcs across every
	// node. Every member must be configured with the same set or their
	// rings will disagree — the hop guard keeps that mistake from looping
	// requests, but ownership locality suffers.
	Peers []string
	// HealthInterval is the peer-ping period (default 1s).
	HealthInterval time.Duration
	// FailAfter marks a peer down after this many consecutive failed pings
	// (default 3). A down peer's requests are applied locally until it
	// answers a ping again.
	FailAfter int
	// Timeout bounds one forwarded request round trip, dial included
	// (default 5s).
	Timeout time.Duration
	// StreamConns is the connection-pool size per peer (default
	// client.DefaultStreamConns).
	StreamConns int
	// Dial overrides peer-client construction (tests). nil dials a real
	// client.StreamClient with Timeout and StreamConns applied.
	Dial func(addr string) PeerClient
}

func (c *Config) fillDefaults() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	if c.FailAfter <= 0 {
		c.FailAfter = DefaultFailAfter
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.StreamConns <= 0 {
		c.StreamConns = client.DefaultStreamConns
	}
}

// peer is one remote member: its ID (dial address) and index in the ring's
// Members(), its pooled stream client, and its health state. fails is touched
// only by the health loop; down is atomic so telemetry can read it anywhere.
type peer struct {
	id    string
	idx   int
	c     PeerClient
	fails int
	down  atomic.Bool
}

// snapshot is the immutable routing view the serving hot path reads: the
// (static) ownership ring plus the currently-alive peers. The health loop
// republishes it on every up/down transition; readers load it once per
// request and never take a lock — the PlanSnapshot pattern applied to
// membership.
type snapshot struct {
	ring *hashring.Ring
	// table[ring.OwnerIndex(id)] is the remote member to forward id to, nil
	// when that member is this node or is down. One entry past the members
	// stands for the local group of a batch plan (see plan) and stays nil.
	table []*peer
}

// Cluster shards device ownership across the member daemons and forwards
// misrouted requests to their owners. It implements server.Router, which
// New attaches with server.Manager.SetRouter: routing, the topology served to
// ring-aware clients, and the federation counters. All methods are safe for
// concurrent use.
type Cluster struct {
	cfg   Config
	m     *server.Manager
	ring  *hashring.Ring
	self  int     // this node's index in ring.Members()
	peers []*peer // remote members, sorted by ID

	snap atomic.Pointer[snapshot]

	// fwdMu gates new forwards against drain: forwards take the read side,
	// BeginDrain flips draining under the write side, and inflight counts
	// forwards between acquire and completion so Close can wait them out.
	fwdMu    sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	forwardsIn          atomic.Int64
	forwardsOut         atomic.Int64
	forwardErrs         atomic.Int64
	localFallbacks      atomic.Int64
	directRoutedBatches atomic.Int64
	forwardBytesIn      atomic.Int64
	forwardBytesOut     atomic.Int64

	// epoch advances whenever the live membership changes; topo holds the
	// payload ring-aware clients fetch (published by publish, which only
	// runs on New's goroutine and then the health loop's).
	epoch atomic.Uint64
	topo  atomic.Pointer[server.TopologyInfo]

	stop      chan struct{}
	healthWG  sync.WaitGroup
	closeOnce sync.Once
}

// New builds the federation layer over m and attaches it: the manager's
// Service entry points route through the cluster from here on, OpTopology
// serves its topology, and /v1/metrics carries the federation counters. Call
// Close (after draining the transports) to detach and tear down the peer
// pools.
//
// Peer connections dial lazily on first use, so New succeeds even while
// peers are still starting; the health loop governs up/down from then on.
func New(m *server.Manager, cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	if cfg.SelfID == "" {
		return nil, errors.New("cluster: SelfID required (the stream address peers dial)")
	}
	if len(cfg.Peers) > 0 {
		found := false
		for _, p := range cfg.Peers {
			if p == cfg.SelfID {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: self ID %q is not in the peers list %v — every member's ID must match its entry in the shared member list exactly (set -node-id to this node's address as the peers know it)", cfg.SelfID, cfg.Peers)
		}
	}
	members := append([]string{cfg.SelfID}, cfg.Peers...)
	ring := hashring.New(members, hashring.DefaultVNodes)
	c := &Cluster{
		cfg:  cfg,
		m:    m,
		ring: ring,
		stop: make(chan struct{}),
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) PeerClient {
			return client.NewStream(addr, client.WithStreamConns(cfg.StreamConns), client.WithTimeout(cfg.Timeout))
		}
	}
	for i, id := range ring.Members() {
		if id == cfg.SelfID {
			c.self = i
			continue
		}
		c.peers = append(c.peers, &peer{id: id, idx: i, c: dial(id)})
	}
	c.publish()
	c.healthWG.Add(1)
	go c.healthLoop()
	m.SetRouter(c)
	return c, nil
}

// Ring exposes the (static) ownership ring.
func (c *Cluster) Ring() *hashring.Ring { return c.ring }

// publish installs a fresh routing snapshot from the peers' current health
// state, and — when the live membership actually changed — advances the
// topology epoch that ring-aware clients fetch. Called at construction and by
// the health loop on transitions (never concurrently: both run on one
// goroutine at a time).
func (c *Cluster) publish() {
	table := make([]*peer, c.ring.Size()+1)
	for _, p := range c.peers {
		if !p.down.Load() {
			table[p.idx] = p
		}
	}
	c.snap.Store(&snapshot{ring: c.ring, table: table})

	members := make([]string, 0, len(c.peers)+1)
	for i, id := range c.ring.Members() { // sorted already
		if i == c.self || table[i] != nil {
			members = append(members, id)
		}
	}
	if prev := c.topo.Load(); prev != nil && slices.Equal(prev.Members, members) {
		return
	}
	info := server.TopologyInfo{
		Epoch:   c.epoch.Add(1),
		VNodes:  c.ring.VNodes(),
		Members: members,
	}
	c.topo.Store(&info)
}

// Topology implements server.Router: the topology served to ring-aware
// clients. Members lists the *live* members — self plus peers currently
// passing health probes — so clients stop routing at a daemon this node
// considers dead.
func (c *Cluster) Topology() server.TopologyInfo {
	return *c.topo.Load()
}

// healthLoop pings every peer each HealthInterval and republishes the
// routing snapshot when any peer changes state. It is the only goroutine
// that mutates health state, so transitions need no lock.
func (c *Cluster) healthLoop() {
	defer c.healthWG.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probePeers()
		}
	}
}

// probePeers runs one health round. Probes run concurrently so one dead
// peer's dial timeout doesn't delay the others' verdicts.
func (c *Cluster) probePeers() {
	errs := make([]error, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			errs[i] = p.c.Ping()
		}(i, p)
	}
	wg.Wait()
	changed := false
	for i, p := range c.peers {
		if errs[i] != nil {
			p.fails++
			if p.fails >= c.cfg.FailAfter && !p.down.Load() {
				p.down.Store(true)
				changed = true
			}
			continue
		}
		p.fails = 0
		if p.down.Load() {
			p.down.Store(false)
			changed = true
		}
	}
	if changed {
		c.publish()
	}
}

// acquireForward registers a new outbound forward unless the cluster is
// draining. Every true return must be paired with c.inflight.Done().
func (c *Cluster) acquireForward() bool {
	c.fwdMu.RLock()
	ok := !c.draining
	if ok {
		c.inflight.Add(1)
	}
	c.fwdMu.RUnlock()
	return ok
}

// BeginDrain stops originating new forwards: from now on every request is
// applied locally, so shutdown never races fresh work onto peer
// connections that are about to close. In-flight forwards are unaffected;
// Close waits for them.
func (c *Cluster) BeginDrain() {
	c.fwdMu.Lock()
	c.draining = true
	c.fwdMu.Unlock()
}

// Close tears the federation layer down in drain order: stop new forwards,
// stop the health loop, wait for in-flight forwarded frames to be answered,
// detach from the manager, then close the peer stream clients. Safe to call
// more than once.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.BeginDrain()
		close(c.stop)
		c.healthWG.Wait()
		c.inflight.Wait()
		c.m.ClearRouter(c)
		for _, p := range c.peers {
			_ = p.c.Close()
		}
	})
	return nil
}

// remoteErr converts a typed remote rejection (the owner answered, saying
// no) into the service layer's error type; transport failures return
// ok=false.
func remoteErr(err error) (error, bool) {
	var se *client.StreamError
	if errors.As(err, &se) {
		return &server.Error{Code: se.Code, Err: errors.New(se.Msg)}, true
	}
	return err, false
}

// forwardFailed classifies a failed forward. fallbackLocal is true only
// when the request provably never reached the owner (dial or write
// failure), in which case applying it locally cannot double-apply — that
// outcome is invisible to the caller, so it counts as a local fallback, not
// a forward error. An authoritative rejection from the owner passes through
// typed; an ambiguous failure (timeout, connection lost mid-flight — the
// owner may have applied the request) counts as a forward error and becomes
// a typed CodeUnavailable so the caller retries instead of this node
// guessing and diverging device state.
func (c *Cluster) forwardFailed(err error) (fallbackLocal bool, typed error) {
	if typedErr, ok := remoteErr(err); ok {
		return false, typedErr
	}
	var ns *client.NotSentError
	if errors.As(err, &ns) {
		c.localFallbacks.Add(1)
		return true, nil
	}
	c.forwardErrs.Add(1)
	return false, &server.Error{Code: server.CodeUnavailable, Err: fmt.Errorf("cluster: forward to owner failed: %w", err)}
}

// ForwardedIn implements server.Router: the transport layer reports each
// hop-flagged frame it serves, with its payload size.
func (c *Cluster) ForwardedIn(bytes int) {
	c.forwardsIn.Add(1)
	c.forwardBytesIn.Add(int64(bytes))
}

// ClusterTelemetry implements server.Router. It reads only atomics and the
// immutable snapshot.
func (c *Cluster) ClusterTelemetry() server.ClusterTelemetry {
	snap := c.snap.Load()
	t := server.ClusterTelemetry{
		ClusterNodeID:         c.cfg.SelfID,
		ClusterRingSize:       c.ring.Size(),
		ClusterVNodes:         c.ring.VNodes(),
		ClusterPeerStates:     make(map[string]string, len(c.peers)),
		ClusterForwardsIn:     c.forwardsIn.Load(),
		ClusterForwardsOut:    c.forwardsOut.Load(),
		ClusterForwardErrors:  c.forwardErrs.Load(),
		ClusterLocalFallbacks: c.localFallbacks.Load(),
		DirectRoutedBatches:   c.directRoutedBatches.Load(),
		TopologyEpoch:         c.epoch.Load(),
		ForwardBytesIn:        c.forwardBytesIn.Load(),
		ForwardBytesOut:       c.forwardBytesOut.Load(),
	}
	for _, p := range c.peers {
		if snap.table[p.idx] != nil {
			t.ClusterPeerStates[p.id] = "up"
			t.ClusterPeersUp++
		} else {
			t.ClusterPeerStates[p.id] = "down"
			t.ClusterPeersDown++
		}
	}
	return t
}

var _ server.Router = (*Cluster)(nil)

// String identifies the member for logs.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster node %s (%d members, %d vnodes)", c.cfg.SelfID, c.ring.Size(), c.ring.VNodes())
}

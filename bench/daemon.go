package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/server"
	"venn/internal/transport"
)

// daemonSeed is the scheduling seed every self-hosted daemon runs with. It is
// fixed: -seed reaches only the bench's input generators.
const daemonSeed = 1

// clientTimeout bounds one request; a loopback request that takes this long
// has failed.
const clientTimeout = 30 * time.Second

// node is one in-process daemon serving real loopback TCP.
type node struct {
	id   string // stable federation member ID (the ring hashes it, so it must not be a port)
	addr string
	m    *server.Manager
	stop []func()
}

func (n *node) close() {
	for i := len(n.stop) - 1; i >= 0; i-- {
		n.stop[i]()
	}
}

func closeNodes(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}

// managerConfig is the daemon configuration of every phase: no daily budget
// (so nothing is refused silently and client and server counts reconcile),
// a fixed seed, default span sampling. clock is nil except in the replay.
func managerConfig(policy string, clock func() time.Time) server.Config {
	return server.Config{
		Policy:             policy,
		Seed:               daemonSeed,
		DisableDailyBudget: true,
		Clock:              clock,
	}
}

// startNodes brings up the workload's daemon(s): one, or two federated over
// the stream transport. tick runs each manager's once-a-second maintenance
// on the wall clock (the replay ticks by hand on its own clock).
func startNodes(w workload, cfg server.Config, tick bool) ([]*node, error) {
	count := 1
	if w.federated {
		count = 2
	}
	nodes := make([]*node, count)
	lns := make([]net.Listener, count)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeNodes(nodes[:i])
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		n := &node{id: fmt.Sprintf("bench-node-%d", i), addr: ln.Addr().String(), m: server.NewManager(cfg)}
		if w.transport == "http" {
			hs := &http.Server{Handler: server.Handler(n.m)}
			go func() { _ = hs.Serve(ln) }()
			n.stop = append(n.stop, func() { _ = hs.Close() })
		} else {
			ts := transport.NewServer(n.m, transport.Options{})
			go func() { _ = ts.Serve(ln) }()
			n.stop = append(n.stop, func() { _ = ts.Close() })
		}
		if tick {
			n.stop = append(n.stop, startTicker(n.m))
		}
		nodes[i] = n
	}
	if w.federated {
		addrOf := make(map[string]string, count)
		ids := make([]string, count)
		for i, n := range nodes {
			addrOf[n.id], ids[i] = n.addr, n.id
		}
		for _, n := range nodes {
			clu, err := cluster.New(n.m, cluster.Config{
				SelfID: n.id, Peers: ids,
				Dial: func(id string) cluster.PeerClient {
					return client.NewStream(addrOf[id], client.WithTimeout(clientTimeout))
				},
			})
			if err != nil {
				closeNodes(nodes)
				return nil, fmt.Errorf("cluster: %w", err)
			}
			// Stop order is reversed: the cluster drains before its transport closes.
			n.stop = append(n.stop, func() { _ = clu.Close() })
		}
	}
	return nodes, nil
}

func startTicker(m *server.Manager) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.Tick()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); <-exited }
}

// dial returns a client of the workload's transport limited to conns
// connections. Federated lanes are seed-only (no topology), so misrouted
// items take the server-side forward path.
func dial(w workload, n *node, conns int) client.API {
	if w.transport == "http" {
		tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
		return client.New("http://"+n.addr,
			client.WithHTTPClient(&http.Client{Transport: tr, Timeout: clientTimeout}))
	}
	return client.New(n.addr, client.WithStreamConns(conns), client.WithTimeout(clientTimeout), client.WithTopology(false))
}

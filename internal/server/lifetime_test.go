package server_test

import (
	"fmt"
	"net"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/server"
	"venn/internal/transport"
)

// TestRetainedIDsOutliveTheirFrames drives the sites that keep a device ID
// past its request — the registry, a job's in-flight table (which keys by
// device number; RetainedIDs reads the IDs back through the registry), the
// federation relay's buffer — and checks that each kept its own copy. It runs twice:
// over real stream connections, where a v2 batch's IDs are views of the
// connection's read buffer, and over HTTP through server.Handler, where a
// JSON batch's IDs are views of the pooled request body. In a normal build
// the test can only notice a view if a later request happens to overwrite
// it; built with -tags poolcheck the transport overwrites a frame's bytes
// (and the connection's batch buffer, and every pooled buffer) and the
// handler a body with 0xA5 the moment it is answered, so a retained view
// reads as garbage here. CI runs it both ways.
func TestRetainedIDsOutliveTheirFrames(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		testRetainedIDs(t, func(addr string, _ *server.Manager) client.API {
			return client.NewStream(addr, client.WithStreamConns(1))
		})
	})
	t.Run("http", func(t *testing.T) {
		testRetainedIDs(t, func(_ string, m *server.Manager) client.API {
			hs := httptest.NewServer(server.Handler(m))
			t.Cleanup(hs.Close)
			return client.New(hs.URL)
		})
	})
}

// testRetainedIDs runs the check with the client dial returns for member A,
// given its stream address and its manager.
func testRetainedIDs(t *testing.T, dial func(addr string, m *server.Manager) client.API) {
	var clockMu sync.Mutex
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	advance := func(d time.Duration) { clockMu.Lock(); now = now.Add(d); clockMu.Unlock() }

	// Two federated daemons, A and B.
	type node struct {
		m    *server.Manager
		addr string
		clu  *cluster.Cluster
	}
	var nodes [2]*node
	var addrs []string
	var lns []net.Listener
	for range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns, addrs = append(lns, ln), append(addrs, ln.Addr().String())
	}
	for i := range nodes {
		m := server.NewManager(server.Config{
			Clock: clock, DeviceTTL: time.Hour, Seed: 7, ObsSampleEvery: 1,
		})
		ts := transport.NewServer(m, transport.Options{})
		go func(ln net.Listener) { _ = ts.Serve(ln) }(lns[i])
		clu, err := cluster.New(m, cluster.Config{SelfID: addrs[i], Peers: addrs, HealthInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &node{m: m, addr: addrs[i], clu: clu}
		t.Cleanup(func() { _ = clu.Close(); _ = ts.Close() })
	}
	a, b := nodes[0], nodes[1]

	for _, n := range nodes {
		if _, err := n.m.RegisterJob(server.JobSpec{Name: "keep", Category: "General", DemandPerRound: 8, Rounds: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// A fleet spanning both owners, all sent to A: B's half crosses the relay.
	fleet := make([]server.CheckIn, 128)
	owned := map[string][]string{}
	for i := range fleet {
		id := fmt.Sprintf("lifetime-device-%04d", i)
		fleet[i] = server.CheckIn{DeviceID: id, CPU: 0.9, Mem: 0.9}
		owner := a.clu.Ring().Owner(id)
		owned[owner] = append(owned[owner], id)
	}
	if len(owned[a.addr]) == 0 || len(owned[b.addr]) == 0 {
		t.Fatalf("fleet does not span both owners: %d on A, %d on B", len(owned[a.addr]), len(owned[b.addr]))
	}
	c := dial(a.addr, a.m)
	defer c.Close()

	sorted := func(ids []string) []string { slices.Sort(ids); return ids }
	checkIn := func() (assigned map[string][]server.Report) {
		t.Helper()
		assigned = map[string][]server.Report{}
		for lo := 0; lo < len(fleet); lo += 64 {
			results, err := c.CheckInBatch(fleet[lo : lo+64])
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				id := fleet[lo+i].DeviceID
				if res.Error != "" {
					t.Fatalf("%s: %s", id, res.Error)
				}
				if res.Assigned {
					owner := a.clu.Ring().Owner(id)
					assigned[owner] = append(assigned[owner], server.Report{DeviceID: id, JobID: res.JobID, OK: true, DurationSeconds: 30})
				}
			}
		}
		return assigned
	}
	idsOf := func(rs []server.Report) []string {
		ids := make([]string, len(rs))
		for i, r := range rs {
			ids[i] = r.DeviceID
		}
		return sorted(ids)
	}

	// Assign. More frames follow the ones that carried the IDs, so even a
	// normal build has reused the read buffers by the time of the checks.
	assigned := checkIn()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		registry, inFlight := n.m.RetainedIDs()
		if got, want := sorted(registry), sorted(slices.Clone(owned[n.addr])); !slices.Equal(got, want) {
			t.Errorf("%s registry holds %q, want %q", n.addr, got, want)
		}
		if got, want := sorted(inFlight), idsOf(assigned[n.addr]); len(want) != 8 || !slices.Equal(got, want) {
			t.Errorf("%s in-flight maps hold %q, want the 8 assigned devices %q", n.addr, got, want)
		}
	}

	// Report: the in-flight keys must match the reported IDs, or the jobs
	// never finish.
	for _, n := range nodes {
		results, err := c.ReportBatch(assigned[n.addr])
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Error != "" {
				t.Errorf("report %s: %s", assigned[n.addr][i].DeviceID, res.Error)
			}
		}
		if jobs := n.m.Jobs(); len(jobs) != 1 || jobs[0].State != "done" {
			t.Errorf("%s: job after its reports: %+v", n.addr, jobs)
		}
		if _, inFlight := n.m.RetainedIDs(); len(inFlight) != 0 {
			t.Errorf("%s: in-flight after the reports: %q", n.addr, inFlight)
		}
	}

	// TTL sweep, then the same fleet again: eviction leaves tombstones and
	// dead arena bytes that the second admission reuses and compacts.
	advance(2 * time.Hour)
	for _, n := range nodes {
		for i := 0; i < 256 && n.m.MetricsSnapshot().KnownDevices > 0; i++ {
			n.m.Tick()
		}
		if left := n.m.MetricsSnapshot().KnownDevices; left != 0 {
			t.Fatalf("%s: %d devices survived the TTL sweep", n.addr, left)
		}
	}
	checkIn()
	for _, n := range nodes {
		registry, _ := n.m.RetainedIDs()
		if got, want := sorted(registry), sorted(slices.Clone(owned[n.addr])); !slices.Equal(got, want) {
			t.Errorf("%s registry after sweep and re-admission holds %q, want %q", n.addr, got, want)
		}
	}
	for _, n := range nodes {
		if mt := n.m.MetricsSnapshot(); mt.ClusterForwardErrors != 0 || (n == a && mt.ClusterForwardsOut == 0) {
			t.Errorf("%s: forwards out %d, errors %d; want B's half forwarded cleanly", n.addr, mt.ClusterForwardsOut, mt.ClusterForwardErrors)
		}
	}
}

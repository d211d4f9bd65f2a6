package cluster_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/hashring"
	"venn/internal/obs"
	"venn/internal/server"
	"venn/internal/transport"
)

// TestForwardTraceJoinsFlightRecords is the end-to-end trace-context test:
// with every request sampled, a check-in for a B-owned device sent through
// daemon A must leave a flight record on A (forwarded, hop stage timed) and
// a hop record on B carrying the same trace ID, so the two sides of the
// forward can be joined from the /v1/debug/flight dumps alone.
func TestForwardTraceJoinsFlightRecords(t *testing.T) {
	addrs := make([]string, 2)
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	mgrs := make([]*server.Manager, 2)
	clus := make([]*cluster.Cluster, 2)
	for i := range mgrs {
		m := server.NewManager(server.Config{ObsSampleEvery: 1})
		ts := transport.NewServer(m, transport.Options{})
		go func(ln net.Listener) { _ = ts.Serve(ln) }(lns[i])
		clu, err := cluster.New(m, cluster.Config{
			SelfID:         addrs[i],
			Peers:          addrs,
			HealthInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgrs[i], clus[i] = m, clu
		t.Cleanup(func() {
			_ = clu.Close()
			_ = ts.Close()
		})
	}
	a, b := mgrs[0], mgrs[1]

	devB := deviceOwnedByRing(t, clus[0].Ring(), addrs[1])

	ca := client.NewStream(addrs[0])
	defer ca.Close()
	if _, err := ca.CheckInBatch([]server.CheckIn{{DeviceID: devB, CPU: 0.5, Mem: 0.5}}); err != nil {
		t.Fatal(err)
	}

	// Spans finish on the connection's goroutine after the flush that carried
	// the response, so the flight records can land an instant after
	// CheckInBatch returns.
	var arec, brec obs.Record
	deadline := time.Now().Add(2 * time.Second)
	for {
		arec, brec = obs.Record{}, obs.Record{}
		for _, r := range a.Obs().Flight().Snapshot() {
			if r.Forwarded && r.Op == "checkin_batch" {
				arec = r
			}
		}
		for _, r := range b.Obs().Flight().Snapshot() {
			if r.Hop && r.Op == "checkin_batch" {
				brec = r
			}
		}
		if arec.TraceID != 0 && brec.TraceID != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight records missing: origin=%+v remote=%+v", arec, brec)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if arec.TraceID != brec.TraceID {
		t.Fatalf("trace IDs diverge: origin %016x, remote %016x", arec.TraceID, brec.TraceID)
	}
	hop := arec.StageNs[obs.StageHop]
	if hop <= 0 {
		t.Fatalf("origin record has no hop time: %+v", arec)
	}
	if brec.TotalNs <= 0 {
		t.Fatalf("remote record has no duration: %+v", brec)
	}
	// The remote's serving time sits inside the origin's hop window; allow
	// scheduler slop on the remote's post-write span finish.
	if slop := int64(5 * time.Millisecond); brec.TotalNs > hop+slop {
		t.Fatalf("remote total %dns exceeds origin hop %dns", brec.TotalNs, hop)
	}
}

// deviceOwnedByRing is deviceOwnedBy against a standalone ring (the trace
// test builds its own federation without the startFederation helper).
func deviceOwnedByRing(t *testing.T, r *hashring.Ring, owner string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("trace-dev-%06d", i)
		if r.Owner(id) == owner {
			return id
		}
	}
	t.Fatalf("no device hashes to %s", owner)
	return ""
}

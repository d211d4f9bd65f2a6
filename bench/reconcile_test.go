package main

import (
	"strings"
	"testing"

	"venn/internal/server"
)

// The path mix is only worth reporting if client and server agree on the
// totals: a doctored counter on either side must be named.
func TestReconcileRejectsADoctoredCounter(t *testing.T) {
	client := counts{frames: 100, checkIns: 6400, assigned: 2560, reported: 2560, attempted: 8960}
	srv := server.Metrics{CheckIns: 6400, Assignments: 2560}
	if reasons := reconcile(client, srv); len(reasons) != 0 {
		t.Fatalf("consistent counts rejected: %v", reasons)
	}
	for _, c := range []struct {
		name   string
		doctor func(*counts, *server.Metrics)
		want   string
	}{
		{"server check-ins", func(_ *counts, s *server.Metrics) { s.CheckIns-- }, "daemons admitted 6399"},
		{"server assignments", func(_ *counts, s *server.Metrics) { s.Assignments++ }, "daemons made 2561"},
		{"lost report", func(c *counts, _ *server.Metrics) { c.reported-- }, "2559 reports acknowledged"},
		{"failed op", func(c *counts, _ *server.Metrics) { c.failed = 3 }, "3 of 8960 operations failed"},
	} {
		cl, sv := client, srv
		c.doctor(&cl, &sv)
		reasons := reconcile(cl, sv)
		if len(reasons) != 1 || !strings.Contains(reasons[0], c.want) {
			t.Errorf("%s: reasons %q, want one containing %q", c.name, reasons, c.want)
		}
	}
}

// capacityMix must read the mix from counter deltas, not totals.
func TestCapacityMixUsesDeltas(t *testing.T) {
	before := server.Metrics{CheckIns: 1000, LockFreeCheckIns: 100, Assignments: 900}
	after := server.Metrics{CheckIns: 3000, LockFreeCheckIns: 1300, Assignments: 1700}
	mix := capacityMix(before, after)
	if got := mix["server.manager.lockfree_frac"]; !near(got, 0.6) {
		t.Errorf("lockfree_frac = %v, want 0.6", got)
	}
	if got := mix["server.manager.assigned_frac"]; !near(got, 0.4) {
		t.Errorf("assigned_frac = %v, want 0.4", got)
	}
}

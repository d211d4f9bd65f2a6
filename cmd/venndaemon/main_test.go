package main

import (
	"strings"
	"testing"
	"time"

	"venn/internal/server"
)

// TestMetricsLineOnAWedgedCore checks that an unhealthy status is logged
// from the status alone: the snapshot would block on the wedged core's mutex.
func TestMetricsLineOnAWedgedCore(t *testing.T) {
	h := server.HealthStatus{OK: false, CoreHeldSeconds: 7.5, Detail: "core commit pipeline wedged"}
	snapshot := func() server.Metrics {
		t.Fatal("an unhealthy line took a snapshot")
		return server.Metrics{}
	}
	t0 := time.Unix(1_700_000_000, 0)
	prev := sample{at: t0, mt: server.Metrics{CheckIns: 10}}
	line := metricsLine(h, snapshot, &prev, t0.Add(time.Second))
	if !strings.HasPrefix(line, "UNHEALTHY(core commit pipeline wedged)") {
		t.Errorf("line = %q, want the UNHEALTHY(core commit pipeline wedged) prefix", line)
	}
	if prev.at != t0 || prev.mt.CheckIns != 10 {
		t.Errorf("an unhealthy line moved the previous sample to %+v", prev)
	}
}

// TestMetricsLineRates checks that the logged rates are the counter
// differences of two snapshots over the time between them.
func TestMetricsLineRates(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	prev := sample{at: t0, mt: server.Metrics{CheckIns: 1_000, Reports: 40}}
	cur := server.Metrics{CheckIns: 6_000, Reports: 240, KnownDevices: 300, BusyDevices: 12}
	line := metricsLine(server.HealthStatus{OK: true}, func() server.Metrics { return cur }, &prev, t0.Add(4*time.Second))
	if want := "checkins/s=1250 reports/s=50 devices=300 busy=12"; line != want {
		t.Errorf("line = %q, want %q", line, want)
	}
	if prev.at != t0.Add(4*time.Second) || prev.mt.CheckIns != cur.CheckIns {
		t.Errorf("a healthy line left the previous sample at %+v", prev)
	}
}

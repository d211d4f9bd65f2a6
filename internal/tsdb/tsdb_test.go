package tsdb

import (
	"testing"
	"testing/quick"

	"venn/internal/device"
	"venn/internal/simtime"
)

func TestRateSimple(t *testing.T) {
	db := New(4, 24*simtime.Hour, simtime.Hour)
	// 10 check-ins for cell 1 spread over one hour.
	for i := 0; i < 10; i++ {
		db.RecordCheckIn(1, simtime.Time(i)*simtime.Time(6*simtime.Minute))
	}
	now := simtime.Time(simtime.Hour)
	rate := db.RatePerHour(1, now)
	if rate < 9 || rate > 11 {
		t.Errorf("rate = %v, want ~10/h", rate)
	}
	if r := db.RatePerHour(0, now); r != 0 {
		t.Errorf("untouched cell rate = %v", r)
	}
}

func TestRateAveragesOverWindow(t *testing.T) {
	db := New(1, 24*simtime.Hour, simtime.Hour)
	// 24 check-ins in the first hour, nothing after: the 24h average at
	// t=24h must be ~1/h, not the momentary burst.
	for i := 0; i < 24; i++ {
		db.RecordCheckIn(0, simtime.Time(i)*simtime.Time(2*simtime.Minute))
	}
	rate := db.RatePerHour(0, simtime.Time(24*simtime.Hour))
	if rate < 0.9 || rate > 1.1 {
		t.Errorf("windowed rate = %v, want ~1/h", rate)
	}
}

func TestRingRecycling(t *testing.T) {
	db := New(1, 6*simtime.Hour, simtime.Hour)
	// Fill hour 0 heavily, then move two window-lengths away; the stale
	// bucket must be recycled rather than pollute the rate.
	for i := 0; i < 100; i++ {
		db.RecordCheckIn(0, 0)
	}
	late := simtime.Time(20 * simtime.Hour)
	db.RecordCheckIn(0, late)
	rate := db.RatePerHour(0, late.Add(simtime.Hour))
	if rate > 1 {
		t.Errorf("stale bucket leaked into rate: %v", rate)
	}
}

func TestTotalRate(t *testing.T) {
	db := New(3, 12*simtime.Hour, simtime.Hour)
	now := simtime.Time(simtime.Hour)
	db.RecordCheckIn(0, 0)
	db.RecordCheckIn(1, 0)
	db.RecordCheckIn(2, 0)
	total := db.TotalRatePerHour(now)
	sum := 0.0
	for c := 0; c < 3; c++ {
		sum += db.RatePerHour(device.CellID(c), now)
	}
	if total != sum {
		t.Errorf("TotalRatePerHour %v != sum %v", total, sum)
	}
}

func TestHasHistory(t *testing.T) {
	db := New(1, 24*simtime.Hour, simtime.Hour)
	if db.HasHistory(0, 1) {
		t.Error("fresh DB must not claim history")
	}
	for h := 0; h < 8; h++ {
		db.RecordCheckIn(0, simtime.Time(h)*simtime.Time(simtime.Hour))
	}
	now := simtime.Time(8 * simtime.Hour)
	if !db.HasHistory(now, 6) {
		t.Error("8 hours of buckets must satisfy 6h requirement")
	}
	if db.HasHistory(now, 20) {
		t.Error("8 hours of buckets must not satisfy 20h requirement")
	}
}

func TestOutOfRangeCells(t *testing.T) {
	db := New(2, 24*simtime.Hour, simtime.Hour)
	db.RecordCheckIn(-1, 0) // must not panic
	db.RecordCheckIn(5, 0)
	if db.RatePerHour(-1, simtime.Time(simtime.Hour)) != 0 {
		t.Error("out-of-range rate must be 0")
	}
	if db.RatePerHour(5, simtime.Time(simtime.Hour)) != 0 {
		t.Error("out-of-range rate must be 0")
	}
}

func TestConstructorDefaults(t *testing.T) {
	db := New(1, 0, 0)
	if db.Window() <= 0 {
		t.Error("degenerate constructor must produce a usable window")
	}
	if db.cells != 1 {
		t.Error("cell count lost")
	}
}

// TestRateConservationProperty: the sum of per-cell rates times the covered
// window equals the number of recorded (in-window) check-ins.
func TestRateConservationProperty(t *testing.T) {
	f := func(events []uint16) bool {
		db := New(4, 8*simtime.Hour, simtime.Hour)
		db.RecordCheckIn(0, 0) // anchor coverage at t=0
		var last simtime.Time
		n := 1
		for _, e := range events {
			cell := device.CellID(e % 4)
			// Keep all events inside the window so nothing expires.
			tm := simtime.Time(e%500) * simtime.Time(simtime.Minute/10)
			if tm < last {
				tm = last
			}
			last = tm
			db.RecordCheckIn(cell, tm)
			n++
		}
		if n == 0 {
			return true
		}
		now := last.Add(simtime.Minute)
		// Total rate * covered hours == n (all events in window).
		covered := now.Sub(0)
		if covered > db.Window() {
			return true // some events may have expired; skip
		}
		got := db.TotalRatePerHour(now) * covered.Hours()
		return got > float64(n)-0.01 && got < float64(n)+0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

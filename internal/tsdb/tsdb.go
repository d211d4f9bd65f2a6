// Package tsdb implements the small time-series database Venn uses to track
// device eligibility over time (§4.4, "Dynamic resource supply"). Device
// check-ins are recorded per atomic grid cell into fixed-width time buckets;
// the scheduler queries the average arrival rate per cell over a trailing
// window (24 hours by default) so that its supply estimates are farsighted
// and robust to the diurnal availability pattern rather than reacting to the
// momentary rate.
package tsdb

import (
	"venn/internal/device"
	"venn/internal/simtime"
)

// DB records per-cell device check-in counts in a ring of time buckets.
// The zero value is not usable; create with New.
type DB struct {
	bucketWidth simtime.Duration
	numBuckets  int
	cells       int

	// counts[cell][bucketIndex % numBuckets]
	counts [][]float64
	// bucketStart[b] is the absolute start time the ring slot currently
	// represents; slots are lazily recycled as time advances.
	bucketStart []simtime.Time
	lastTime    simtime.Time
	// firstTime is the earliest recorded instant; -1 before any record.
	// Coverage for rate averaging runs from max(firstTime, now-window)
	// to now, so silent periods correctly count as zero-rate time.
	firstTime simtime.Time
}

// New creates a DB covering `window` of history at `bucketWidth` resolution
// for a grid with `cells` atomic cells.
func New(cells int, window, bucketWidth simtime.Duration) *DB {
	if bucketWidth <= 0 {
		bucketWidth = simtime.Hour
	}
	if window < bucketWidth {
		window = bucketWidth
	}
	n := int(window / bucketWidth)
	if n < 1 {
		n = 1
	}
	db := &DB{
		bucketWidth: bucketWidth,
		numBuckets:  n,
		cells:       cells,
		counts:      make([][]float64, cells),
		bucketStart: make([]simtime.Time, n),
	}
	for i := range db.counts {
		db.counts[i] = make([]float64, n)
	}
	for i := range db.bucketStart {
		db.bucketStart[i] = -1
	}
	db.firstTime = -1
	return db
}

// Window returns the amount of history the DB retains.
func (db *DB) Window() simtime.Duration {
	return db.bucketWidth * simtime.Duration(db.numBuckets)
}

// slotFor returns the ring slot for time t, recycling it if it holds data
// from an older wrap of the ring.
func (db *DB) slotFor(t simtime.Time) int {
	bucket := int64(t) / int64(db.bucketWidth)
	slot := int(bucket % int64(db.numBuckets))
	start := simtime.Time(bucket * int64(db.bucketWidth))
	if db.bucketStart[slot] != start {
		db.bucketStart[slot] = start
		for c := range db.counts {
			db.counts[c][slot] = 0
		}
	}
	return slot
}

// RecordCheckIn notes one device check-in for the given cell at time t.
// Times must be non-decreasing across calls (simulation order).
func (db *DB) RecordCheckIn(cell device.CellID, t simtime.Time) {
	db.RecordCheckIns(cell, 1, t)
}

// RecordCheckIns notes n device check-ins for the given cell at time t in
// one call — the bulk entry point for callers (like the live server) that
// batch check-in counts outside their scheduler lock and drain them
// periodically.
func (db *DB) RecordCheckIns(cell device.CellID, n int, t simtime.Time) {
	if n <= 0 || int(cell) < 0 || int(cell) >= db.cells {
		return
	}
	slot := db.slotFor(t)
	db.counts[cell][slot] += float64(n)
	if t > db.lastTime {
		db.lastTime = t
	}
	if db.firstTime < 0 || t < db.firstTime {
		db.firstTime = t
	}
}

// coveredWindow returns the span of observed history inside the trailing
// window ending at now.
func (db *DB) coveredWindow(now simtime.Time) simtime.Duration {
	if db.firstTime < 0 || now <= db.firstTime {
		return 0
	}
	start := db.firstTime
	if cutoff := now.Add(-db.Window()); cutoff > start {
		start = cutoff
	}
	return now.Sub(start)
}

// RatePerHour returns the average check-in rate (devices/hour) for the cell
// over the trailing window ending at now. Buckets that predate the window or
// postdate now contribute nothing. If no history exists yet, returns 0.
func (db *DB) RatePerHour(cell device.CellID, now simtime.Time) float64 {
	if int(cell) < 0 || int(cell) >= db.cells {
		return 0
	}
	cutoff := now.Add(-db.Window())
	total := 0.0
	for slot := 0; slot < db.numBuckets; slot++ {
		start := db.bucketStart[slot]
		if start < 0 {
			continue
		}
		end := start.Add(db.bucketWidth)
		if end <= cutoff || start > now {
			continue
		}
		total += db.counts[cell][slot]
	}
	covered := db.coveredWindow(now)
	if covered <= 0 {
		return 0
	}
	return total / covered.Hours()
}

// TotalRatePerHour returns the fleet-wide check-in rate over the window.
func (db *DB) TotalRatePerHour(now simtime.Time) float64 {
	total := 0.0
	for c := 0; c < db.cells; c++ {
		total += db.RatePerHour(device.CellID(c), now)
	}
	return total
}

// HasHistory reports whether at least minHours of history has been observed
// at time now — before that, callers should blend in the capacity-model
// prior instead of trusting the measured rates.
func (db *DB) HasHistory(now simtime.Time, minHours float64) bool {
	return db.coveredWindow(now).Hours() >= minHours
}

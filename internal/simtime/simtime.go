// Package simtime defines the simulated clock used across the Venn
// simulator. Simulated time is an absolute count of milliseconds since the
// start of the simulation, which keeps every component deterministic and
// cheap to compare, add, and hash.
package simtime

import (
	"fmt"
	"time"
)

// Time is an absolute instant in simulated time, in milliseconds since the
// simulation epoch (t = 0).
type Time int64

// Duration is a span of simulated time in milliseconds.
type Duration int64

// Common durations, mirroring the time package but in simulator units.
const (
	Millisecond Duration = 1
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
	Day         Duration = 24 * Hour
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t - u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// DayIndex returns the zero-based day the instant falls in.
func (t Time) DayIndex() int {
	if t < 0 {
		return int((t - Time(Day) + 1) / Time(Day))
	}
	return int(t / Time(Day))
}

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Minutes returns the duration as floating-point minutes.
func (d Duration) Minutes() float64 { return float64(d) / float64(Minute) }

// Hours returns the duration as floating-point hours.
func (d Duration) Hours() float64 { return float64(d) / float64(Hour) }

// FromSeconds converts floating-point seconds to a Duration, rounding to the
// nearest millisecond.
func FromSeconds(s float64) Duration { return Duration(s*float64(Second) + 0.5) }

// FromStd converts a time.Duration into simulator units.
func FromStd(d time.Duration) Duration { return Duration(d / time.Millisecond) }

// String renders the instant as an h:mm:ss.mmm offset from the epoch.
func (t Time) String() string {
	d := Duration(t)
	return d.String()
}

// String renders the duration in a compact h:mm:ss.mmm form.
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	h := d / Hour
	m := (d % Hour) / Minute
	s := (d % Minute) / Second
	ms := d % Second
	if ms == 0 {
		return fmt.Sprintf("%s%d:%02d:%02d", neg, h, m, s)
	}
	return fmt.Sprintf("%s%d:%02d:%02d.%03d", neg, h, m, s, ms)
}

// Clamp restricts d to the inclusive range [lo, hi].
func Clamp(d, lo, hi Duration) Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

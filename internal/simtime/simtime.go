// Package simtime provides the virtual time base for the node simulator.
//
// All simulated latencies are expressed as Duration values with
// picosecond resolution. Picoseconds are fine-grained enough to
// represent a single clock cycle at any frequency the simulated
// platform supports (one cycle at 2.7 GHz is ~370.4 ps) while an int64
// still spans more than 100 days of simulated time.
package simtime

import (
	"fmt"
	"time"
)

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// FromNanos converts a floating-point nanosecond count to a Duration,
// rounding to the nearest picosecond.
func FromNanos(ns float64) Duration {
	return Duration(ns*1e3 + 0.5)
}

// FromSeconds converts a floating-point second count to a Duration.
func FromSeconds(s float64) Duration {
	return Duration(s * 1e12)
}

// FromStd converts a time.Duration to a simulated Duration.
func FromStd(d time.Duration) Duration {
	return Duration(d.Nanoseconds()) * Nanosecond
}

// Nanos reports d in nanoseconds.
func (d Duration) Nanos() float64 { return float64(d) / 1e3 }

// Seconds reports d in seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e12 }

// Std converts d to a time.Duration, saturating on overflow of the
// nanosecond representation.
func (d Duration) Std() time.Duration {
	return time.Duration(d/Nanosecond) * time.Nanosecond
}

// String renders d using the most natural unit, matching the paper's
// h:m:s presentation for long times.
func (d Duration) String() string {
	switch {
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.2fns", d.Nanos())
	case d < Second:
		return d.Std().String()
	default:
		return d.HMS()
	}
}

// HMS renders d as h:mm:ss (rounded to the nearest second), the format
// used by Table II of the paper.
func (d Duration) HMS() string {
	secs := int64((d + Second/2) / Second)
	h := secs / 3600
	m := (secs % 3600) / 60
	s := secs % 60
	return fmt.Sprintf("%d:%02d:%02d", h, m, s)
}

// CyclesAt reports how many whole cycles of the given frequency fit in d.
func (d Duration) CyclesAt(freqMHz int) int64 {
	if freqMHz <= 0 {
		return 0
	}
	// cycles = d[s] * f[Hz] = d[ps] * f[MHz] * 1e-6
	return int64(float64(d) * float64(freqMHz) * 1e-6)
}

// CycleTime returns the duration of one clock cycle at freqMHz.
func CycleTime(freqMHz int) Duration {
	if freqMHz <= 0 {
		return 0
	}
	return Duration(1e6/float64(freqMHz) + 0.5)
}

// Cycles returns the duration of n cycles at freqMHz without
// accumulating per-cycle rounding error.
func Cycles(n int64, freqMHz int) Duration {
	if freqMHz <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n)*1e6/float64(freqMHz) + 0.5)
}

// CycleTable is Cycles without the floating-point divide: it holds
// Cycles(n, f) for every n below 64 — which covers every on-chip
// latency the simulator charges per access — at the one frequency f
// last asked for, and rebuilds itself when the frequency changes (a
// P-state transition, at most once per control period). A lookup is
// two compares and a load, and the value is Cycles' own, bit for bit.
// The zero value is ready to use.
type CycleTable struct {
	freqMHz int
	d       [64]Duration // d[n] = Cycles(n, freqMHz)
}

// Cycles returns Cycles(n, freqMHz).
func (t *CycleTable) Cycles(n int64, freqMHz int) Duration {
	if freqMHz == t.freqMHz && uint64(n) < uint64(len(t.d)) {
		return t.d[n]
	}
	return t.slow(n, freqMHz)
}

// slow is the part of Cycles kept out of line so that the lookup
// above inlines into the access path: retabulate for a new frequency,
// or compute a count too large for the table directly.
//
//go:noinline
func (t *CycleTable) slow(n int64, freqMHz int) Duration {
	if freqMHz != t.freqMHz {
		t.freqMHz = freqMHz
		for i := range t.d {
			t.d[i] = Cycles(int64(i), freqMHz)
		}
	}
	return Cycles(n, freqMHz)
}

// Clock is a monotonically advancing virtual clock.
type Clock struct {
	now Duration
}

// NewClock returns a clock positioned at time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current simulated time.
func (c *Clock) Now() Duration { return c.now }

// Advance moves the clock forward by d. It panics if d is negative:
// simulated time never runs backwards, and a negative latency always
// indicates a modelling bug upstream.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %d", d))
	}
	c.now += d
}

// AdvanceTo moves the clock to the absolute time t if t is in the
// future; it is a no-op otherwise.
func (c *Clock) AdvanceTo(t Duration) {
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds the clock to zero. Only experiment harnesses reset
// clocks, between independent runs.
func (c *Clock) Reset() { c.now = 0 }

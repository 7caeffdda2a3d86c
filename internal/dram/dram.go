// Package dram models main-memory timing: an open-page DRAM with
// per-bank row buffers, plus memory-controller duty-cycle gating.
//
// Duty-cycle gating is the "memory gating" the paper names as the
// likely cause of the enormous, erratic access times its stride probe
// measured under a 120 W cap (Figure 4): the controller is powered for
// only a fraction of each gating period, and an access arriving in the
// off window stalls until the next on window. Because the stall depends
// on the arrival phase, average access times become both large and
// inconsistent — exactly the behaviour the authors could not reconcile
// with a static hierarchy configuration.
package dram

import (
	"fmt"
	"math/bits"

	"nodecap/internal/simtime"
)

// Config describes the DRAM geometry and timing.
type Config struct {
	// RowHitNanos and RowMissNanos are the access latencies for
	// row-buffer hits and misses. The paper's uncapped probe measured
	// ~60 ns to main memory; a 50/65 split around that reproduces it
	// for mixed workloads.
	RowHitNanos  float64
	RowMissNanos float64
	Banks        int // power of two
	RowBytes     int // power of two; bytes covered by one row buffer
}

// Validate reports an error for unrealizable geometry.
func (c Config) Validate() error {
	if c.RowHitNanos <= 0 || c.RowMissNanos < c.RowHitNanos {
		return fmt.Errorf("dram: bad latencies hit=%v miss=%v", c.RowHitNanos, c.RowMissNanos)
	}
	if c.Banks <= 0 || bits.OnesCount(uint(c.Banks)) != 1 {
		return fmt.Errorf("dram: banks %d not a positive power of two", c.Banks)
	}
	if c.RowBytes <= 0 || bits.OnesCount(uint(c.RowBytes)) != 1 {
		return fmt.Errorf("dram: row size %d not a positive power of two", c.RowBytes)
	}
	return nil
}

// GateConfig describes one memory-gating level. Two mechanisms
// compose: LatencyScale models running the memory interface at a
// reduced I/O rate (every access uniformly slower), and
// OnFraction < 1 models duty-cycling the controller (accesses arriving
// in the off window stall until the next on window).
type GateConfig struct {
	// Period is the length of one duty cycle.
	Period simtime.Duration
	// OnFraction in (0,1] is the powered fraction of each period.
	// 1 means no duty cycling.
	OnFraction float64
	// WakeNanos is charged when an access has to wait for the
	// controller to power back up (PLL relock, DLL resync).
	WakeNanos float64
	// LatencyScale >= 1 multiplies the DRAM access latencies,
	// modelling a down-clocked memory interface. Values below 1 are
	// treated as 1.
	LatencyScale float64
}

// Ungated is the gating level of an uncapped platform.
var Ungated = GateConfig{Period: simtime.Millisecond, OnFraction: 1.0, LatencyScale: 1.0}

// Stats counts DRAM activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	// GateStalls counts accesses that arrived in an off window;
	// GateStallTime is the total time they spent waiting.
	GateStalls    uint64
	GateStallTime simtime.Duration
}

// DRAM is the main-memory timing model.
type DRAM struct {
	cfg      Config
	gate     GateConfig
	openRows []int64 // per-bank open row, -1 when none
	rowShift uint    // log2(RowBytes): an address's row is a shift away
	stats    Stats
}

// New builds a DRAM model, panicking on invalid static geometry.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &DRAM{cfg: cfg, gate: Ungated, openRows: make([]int64, cfg.Banks),
		rowShift: uint(bits.TrailingZeros(uint(cfg.RowBytes)))}
	for i := range d.openRows {
		d.openRows[i] = -1
	}
	return d
}

// Config returns the DRAM geometry.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a snapshot of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats zeroes the counters, leaving row buffers open.
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// Gate returns the current gating level.
func (d *DRAM) Gate() GateConfig { return d.gate }

// SetGate installs a duty-cycle gating level. OnFraction is clamped to
// (0.01, 1]; a zero-duty controller would deadlock the machine.
func (d *DRAM) SetGate(g GateConfig) {
	if g.OnFraction > 1 {
		g.OnFraction = 1
	}
	if g.OnFraction < 0.01 {
		g.OnFraction = 0.01
	}
	if g.Period <= 0 {
		g.Period = simtime.Millisecond
	}
	if g.LatencyScale < 1 {
		g.LatencyScale = 1
	}
	d.gate = g
}

// Access times one memory access that starts at the absolute simulated
// time now, returning its total latency. write selects the direction;
// both directions cost the same in this model (write buffering is
// folded into the row-buffer behaviour).
func (d *DRAM) Access(now simtime.Duration, addr uint64, write bool) simtime.Duration {
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}

	stall := d.gateStall(now)
	if stall > 0 {
		d.stats.GateStalls++
		d.stats.GateStallTime += stall
	}

	row := int64(addr >> d.rowShift)
	bank := int(uint(row) & uint(len(d.openRows)-1))
	var lat float64
	if d.openRows[bank] == row {
		d.stats.RowHits++
		lat = d.cfg.RowHitNanos
	} else {
		d.stats.RowMisses++
		d.openRows[bank] = row
		lat = d.cfg.RowMissNanos
	}
	if d.gate.LatencyScale > 1 {
		lat *= d.gate.LatencyScale
	}
	return stall + simtime.FromNanos(lat)
}

// gateStall reports how long an access arriving at now must wait for
// the controller's next on window (zero when ungated or arriving
// inside an on window).
func (d *DRAM) gateStall(now simtime.Duration) simtime.Duration {
	if d.gate.OnFraction >= 1 {
		return 0
	}
	period := d.gate.Period
	onLen := simtime.Duration(float64(period) * d.gate.OnFraction)
	phase := now % period
	if phase < onLen {
		return 0
	}
	wait := period - phase
	return wait + simtime.FromNanos(d.gate.WakeNanos)
}

// PeakLatency reports the worst-case single-access latency at the
// current gating level, used by capacity planning in examples.
func (d *DRAM) PeakLatency() simtime.Duration {
	scale := d.gate.LatencyScale
	if scale < 1 {
		scale = 1
	}
	worst := simtime.FromNanos(d.cfg.RowMissNanos * scale)
	if d.gate.OnFraction < 1 {
		offLen := simtime.Duration(float64(d.gate.Period) * (1 - d.gate.OnFraction))
		worst += offLen + simtime.FromNanos(d.gate.WakeNanos)
	}
	return worst
}

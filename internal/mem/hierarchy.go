// Package mem composes the cache, TLB, and DRAM models into the full
// memory hierarchy of the simulated node and times individual
// accesses through it.
//
// The geometry defaults reproduce the platform of Section III of the
// paper — per core 32 KB 8-way L1I and L1D, 256 KB 8-way unified L2,
// a 20 MB 20-way shared L3, 64 B lines throughout — with the level
// access times the paper's stride probe inferred (Figure 3): ~1.5 ns
// to L1, ~3.5 ns to L2, ~8.6 ns to L3, ~60 ns to memory at 2.7 GHz.
// Cache latencies are expressed in core cycles and therefore stretch
// as DVFS lowers the frequency; DRAM latency is wall-clock.
package mem

import (
	"fmt"

	"nodecap/internal/cache"
	"nodecap/internal/dram"
	"nodecap/internal/simtime"
	"nodecap/internal/tlb"
)

// AccessKind distinguishes the three ways the core touches memory.
type AccessKind int

const (
	Load AccessKind = iota
	Store
	IFetch
)

func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case IFetch:
		return "ifetch"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Level identifies where an access was satisfied.
type Level int

const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMemory
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMemory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Config assembles the hierarchy's geometry and timing.
type Config struct {
	L1I, L1D, L2, L3 cache.Config
	ITLB, DTLB       tlb.Config
	DRAM             dram.Config
	// PeakBytesPerSec is the single-core effective memory bandwidth
	// used to convert DRAM traffic into the power model's utilization
	// input. The simulator serializes misses, so this is the
	// serialized-stream rate, not the platform's peak.
	PeakBytesPerSec float64
}

// DefaultConfig returns the paper's platform (one core's view).
func DefaultConfig() Config {
	return Config{
		L1I: cache.Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8,
			HitLatencyCycles: 4, WriteBack: false},
		L1D: cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8,
			HitLatencyCycles: 4, WriteBack: true},
		L2: cache.Config{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8,
			HitLatencyCycles: 6, WriteBack: true},
		L3: cache.Config{Name: "L3", SizeBytes: 20 << 20, LineBytes: 64, Ways: 20,
			HitLatencyCycles: 13, WriteBack: true},
		ITLB: tlb.Config{Name: "ITLB", Entries: 128, Ways: 4, PageBytes: 4096,
			MissPenaltyCycles: 20},
		DTLB: tlb.Config{Name: "DTLB", Entries: 64, Ways: 4, PageBytes: 4096,
			MissPenaltyCycles: 30},
		DRAM:            dram.Config{RowHitNanos: 50, RowMissNanos: 65, Banks: 8, RowBytes: 8192},
		PeakBytesPerSec: 1.6e9,
	}
}

// Result reports one access's outcome.
type Result struct {
	Latency simtime.Duration
	Level   Level
	TLBMiss bool
}

// Hierarchy is one core's memory system.
type Hierarchy struct {
	cfg  Config
	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
	l3   *cache.Cache
	itlb *tlb.TLB
	dtlb *tlb.TLB
	ram  *dram.DRAM

	// Per-access constants hoisted out of cfg so the hot path loads
	// scalars instead of walking nested config structs.
	l1iHit, l1dHit, l2Hit, l3Hit int64
	itlbMiss, dtlbMiss           int64
	lineBytes                    uint64
	// cyc turns an access's on-chip cycle count into time without the
	// divide simtime.Cycles pays.
	cyc simtime.CycleTable

	dramBytes uint64 // traffic accumulator for bandwidth utilization
}

// New assembles a hierarchy; the component constructors panic on
// invalid static geometry.
func New(cfg Config) *Hierarchy {
	if cfg.PeakBytesPerSec <= 0 {
		cfg.PeakBytesPerSec = DefaultConfig().PeakBytesPerSec
	}
	return &Hierarchy{
		cfg:       cfg,
		l1i:       cache.New(cfg.L1I),
		l1d:       cache.New(cfg.L1D),
		l2:        cache.New(cfg.L2),
		l3:        cache.New(cfg.L3),
		itlb:      tlb.New(cfg.ITLB),
		dtlb:      tlb.New(cfg.DTLB),
		ram:       dram.New(cfg.DRAM),
		l1iHit:    int64(cfg.L1I.HitLatencyCycles),
		l1dHit:    int64(cfg.L1D.HitLatencyCycles),
		l2Hit:     int64(cfg.L2.HitLatencyCycles),
		l3Hit:     int64(cfg.L3.HitLatencyCycles),
		itlbMiss:  int64(cfg.ITLB.MissPenaltyCycles),
		dtlbMiss:  int64(cfg.DTLB.MissPenaltyCycles),
		lineBytes: uint64(cfg.L3.LineBytes),
	}
}

// Component accessors, used by the BMC's gating ladder and by tests.
func (h *Hierarchy) L1I() *cache.Cache { return h.l1i }
func (h *Hierarchy) L1D() *cache.Cache { return h.l1d }
func (h *Hierarchy) L2() *cache.Cache  { return h.l2 }
func (h *Hierarchy) L3() *cache.Cache  { return h.l3 }
func (h *Hierarchy) ITLB() *tlb.TLB    { return h.itlb }
func (h *Hierarchy) DTLB() *tlb.TLB    { return h.dtlb }
func (h *Hierarchy) DRAM() *dram.DRAM  { return h.ram }
func (h *Hierarchy) Config() Config    { return h.cfg }

// Access times one memory access beginning at absolute time now with
// the core running at freqMHz. It updates all level statistics,
// maintains L3 inclusion, and routes write-back traffic.
func (h *Hierarchy) Access(now simtime.Duration, freqMHz int, addr uint64, kind AccessKind) Result {
	var res Result
	var cycles int64

	// Address translation.
	write := kind == Store
	l1 := h.l1d
	l1Hit := h.l1dHit
	if kind == IFetch {
		if !h.itlb.Lookup(addr) {
			res.TLBMiss = true
			cycles += h.itlbMiss
		}
		l1 = h.l1i
		l1Hit = h.l1iHit
	} else if !h.dtlb.Lookup(addr) {
		res.TLBMiss = true
		cycles += h.dtlbMiss
	}

	cycles += l1Hit
	hit1, ev1, fl1 := l1.AccessPacked(addr, write)
	if fl1&cache.WritebackFlag != 0 {
		h.writeback(now, 1, ev1)
	}
	if hit1 {
		res.Level = LevelL1
		res.Latency = h.cyc.Cycles(cycles, freqMHz)
		return res
	}

	cycles += h.l2Hit
	hit2, ev2, fl2 := h.l2.AccessPacked(addr, write)
	if fl2&cache.WritebackFlag != 0 {
		h.writeback(now, 2, ev2)
	}
	if hit2 {
		res.Level = LevelL2
		res.Latency = h.cyc.Cycles(cycles, freqMHz)
		return res
	}

	cycles += h.l3Hit
	hit3, ev3, fl3 := h.l3.AccessPacked(addr, write)
	if fl3&cache.EvictedFlag != 0 {
		h.backInvalidate(now, ev3)
		if fl3&cache.WritebackFlag != 0 {
			h.dramWrite(now, ev3)
		}
	}
	if hit3 {
		res.Level = LevelL3
		res.Latency = h.cyc.Cycles(cycles, freqMHz)
		return res
	}

	// Miss to memory: line fill on the critical path.
	res.Level = LevelMemory
	onChip := h.cyc.Cycles(cycles, freqMHz)
	dramLat := h.ram.Access(now+onChip, addr, false)
	h.dramBytes += h.lineBytes
	res.Latency = onChip + dramLat
	return res
}

// writeback pushes a dirty line from level (1 = L1D, 2 = L2) downward.
// Write-back traffic is off the critical path (posted through write
// buffers), so it updates state and counters but returns no latency.
func (h *Hierarchy) writeback(now simtime.Duration, fromLevel int, addr uint64) {
	if fromLevel <= 1 {
		if h.l2.Update(addr) {
			return
		}
	}
	if h.l3.Update(addr) {
		return
	}
	h.dramWrite(now, addr)
}

// dramWrite posts one line write to memory (row-buffer state and
// counters only; posted writes are not on the load critical path).
func (h *Hierarchy) dramWrite(now simtime.Duration, addr uint64) {
	h.ram.Access(now, addr, true)
	h.dramBytes += h.lineBytes
}

// backInvalidate enforces L3 inclusion: a line evicted from L3 may not
// survive in the inner levels. Dirty inner copies are written to
// memory.
func (h *Hierarchy) backInvalidate(now simtime.Duration, addr uint64) {
	dirty := h.l1d.Invalidate(addr)
	h.l1i.Invalidate(addr)
	if h.l2.Invalidate(addr) {
		dirty = true
	}
	if dirty {
		h.dramWrite(now, addr)
	}
}

// gateCache gates a cache level down to n ways, writing the flushed
// dirty lines to memory and enforcing inclusion for L3 shrinks.
func (h *Hierarchy) gateCache(now simtime.Duration, c *cache.Cache, n int, isL3 bool) {
	for _, addr := range c.SetActiveWays(n) {
		h.dramWrite(now, addr)
	}
	if isL3 && n < c.Config().Ways {
		// Inclusion after an L3 shrink: anything no longer in L3 must
		// leave the inner levels. Flushing the inner levels entirely is
		// the simple, conservative hardware response.
		for _, a := range h.l1d.Flush() {
			if h.l2.Update(a) || h.l3.Update(a) {
				continue
			}
			h.dramWrite(now, a)
		}
		h.l1i.Flush()
		for _, a := range h.l2.Flush() {
			if h.l3.Update(a) {
				continue
			}
			h.dramWrite(now, a)
		}
	}
}

// Gating is the hierarchy's power-gating posture, set by the BMC.
type Gating struct {
	L1Ways   int // per L1 cache; 0 means "all ways"
	L2Ways   int
	L3Ways   int
	ITLBWays int
	DTLBWays int
	DRAMDuty float64         // (0,1]; 1 means ungated
	DRAMGate dram.GateConfig // full gate config; Duty overrides OnFraction if set
}

// ApplyGating reconfigures the hierarchy to the posture g at time now.
// Zero-valued fields mean "fully powered".
func (h *Hierarchy) ApplyGating(now simtime.Duration, g Gating) {
	or := func(v, full int) int {
		if v <= 0 {
			return full
		}
		return v
	}
	h.gateCache(now, h.l1d, or(g.L1Ways, h.cfg.L1D.Ways), false)
	h.gateCache(now, h.l1i, or(g.L1Ways, h.cfg.L1I.Ways), false)
	h.gateCache(now, h.l2, or(g.L2Ways, h.cfg.L2.Ways), false)
	h.gateCache(now, h.l3, or(g.L3Ways, h.cfg.L3.Ways), true)
	h.itlb.SetActiveWays(or(g.ITLBWays, h.cfg.ITLB.Ways))
	h.dtlb.SetActiveWays(or(g.DTLBWays, h.cfg.DTLB.Ways))

	gate := g.DRAMGate
	if gate.Period == 0 {
		gate = dram.Ungated
	}
	if g.DRAMDuty > 0 {
		gate.OnFraction = g.DRAMDuty
	}
	h.ram.SetGate(gate)
}

// GatedState summarizes the posture for the power model.
type GatedState struct {
	L1WaysGated      int // summed across L1I and L1D
	L2WaysGated      int
	L3WaysGated      int
	TLBGatedFraction float64
	DRAMDuty         float64
}

// Gated reports the current gating posture.
func (h *Hierarchy) Gated() GatedState {
	itlbFrac := 1 - float64(h.itlb.ActiveWays())/float64(h.cfg.ITLB.Ways)
	dtlbFrac := 1 - float64(h.dtlb.ActiveWays())/float64(h.cfg.DTLB.Ways)
	return GatedState{
		L1WaysGated:      (h.cfg.L1D.Ways - h.l1d.ActiveWays()) + (h.cfg.L1I.Ways - h.l1i.ActiveWays()),
		L2WaysGated:      h.cfg.L2.Ways - h.l2.ActiveWays(),
		L3WaysGated:      h.cfg.L3.Ways - h.l3.ActiveWays(),
		TLBGatedFraction: (itlbFrac + dtlbFrac) / 2,
		DRAMDuty:         h.ram.Gate().OnFraction,
	}
}

// TakeDRAMBytes returns and resets the DRAM traffic accumulator; the
// machine divides by the elapsed interval to obtain bandwidth
// utilization for the power model.
func (h *Hierarchy) TakeDRAMBytes() uint64 {
	b := h.dramBytes
	h.dramBytes = 0
	return b
}

// ResetStats clears every component's counters (a PAPI reset), leaving
// contents and gating intact.
func (h *Hierarchy) ResetStats() {
	h.l1i.ResetStats()
	h.l1d.ResetStats()
	h.l2.ResetStats()
	h.l3.ResetStats()
	h.itlb.ResetStats()
	h.dtlb.ResetStats()
	h.ram.ResetStats()
	h.dramBytes = 0
}

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

// AccessKind distinguishes the ways the core touches memory.
type AccessKind int

const (
	Load AccessKind = iota
	Store
	IFetch
	// Spec is a data read nothing waits for: the front end's run-ahead
	// next-line load, the firmware handler's data touches. It is a Load
	// in every respect but one — see the channel rule at Uncore.fill.
	Spec
)

func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case IFetch:
		return "ifetch"
	case Spec:
		return "spec"
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
	// serialized-stream rate, not the platform's peak; a socket's is
	// this times its core count.
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

// Uncore is what the cores of one socket share: the inclusive L3, the
// DRAM behind it with its one channel, and the traffic accumulator the
// power model reads. Cores join it through Attach.
type Uncore struct {
	cfg   Config
	l3    *cache.Cache
	ram   *dram.DRAM
	cores []*Hierarchy

	lineBytes uint64
	dramBytes uint64 // traffic accumulator for bandwidth utilization
	// busyUntil is when the DRAM channel is next free; see fill.
	busyUntil simtime.Duration
}

// Hierarchy is one core's memory system: its private L1I/L1D/L2 and
// TLBs in front of the socket's shared Uncore.
type Hierarchy struct {
	u    *Uncore
	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
	itlb *tlb.TLB
	dtlb *tlb.TLB
	// The shared levels, held here as well so the walk reaches them
	// without a load through u.
	l3  *cache.Cache
	ram *dram.DRAM

	// Per-access constants hoisted out of cfg so the hot path loads
	// scalars instead of walking nested config structs.
	l1iHit, l1dHit, l2Hit, l3Hit int64
	itlbMiss, dtlbMiss           int64
	// cyc turns an access's on-chip cycle count into time without the
	// divide simtime.Cycles pays.
	cyc simtime.CycleTable
}

// NewUncore assembles a socket's shared levels with no core attached;
// the component constructors panic on invalid static geometry. old,
// when not nil, is the uncore of a socket nobody will use again: the L3
// is built over its slab (cache.Recycle), and nothing else of it is
// read.
func NewUncore(cfg Config, old *Uncore) *Uncore {
	if cfg.PeakBytesPerSec <= 0 {
		cfg.PeakBytesPerSec = DefaultConfig().PeakBytesPerSec
	}
	if old == nil {
		old = &Uncore{}
	}
	return &Uncore{
		cfg:       cfg,
		l3:        cache.Recycle(cfg.L3, old.l3),
		ram:       dram.New(cfg.DRAM),
		lineBytes: uint64(cfg.L3.LineBytes),
	}
}

// Attach adds one core to the socket and returns its hierarchy, built
// over the cache slabs of old — a core of the socket NewUncore recycled
// — when that is not nil. The TLBs are a few hundred words and always
// fresh.
func (u *Uncore) Attach(old *Hierarchy) *Hierarchy {
	cfg := &u.cfg
	if old == nil {
		old = &Hierarchy{}
	}
	h := &Hierarchy{
		u:        u,
		l1i:      cache.Recycle(cfg.L1I, old.l1i),
		l1d:      cache.Recycle(cfg.L1D, old.l1d),
		l2:       cache.Recycle(cfg.L2, old.l2),
		itlb:     tlb.New(cfg.ITLB),
		dtlb:     tlb.New(cfg.DTLB),
		l3:       u.l3,
		ram:      u.ram,
		l1iHit:   int64(cfg.L1I.HitLatencyCycles),
		l1dHit:   int64(cfg.L1D.HitLatencyCycles),
		l2Hit:    int64(cfg.L2.HitLatencyCycles),
		l3Hit:    int64(cfg.L3.HitLatencyCycles),
		itlbMiss: int64(cfg.ITLB.MissPenaltyCycles),
		dtlbMiss: int64(cfg.DTLB.MissPenaltyCycles),
	}
	u.cores = append(u.cores, h)
	return h
}

// New assembles a one-core socket and returns the core's hierarchy.
func New(cfg Config) *Hierarchy { return NewUncore(cfg, nil).Attach(nil) }

// Component accessors, used by the BMC's gating ladder and by tests.
func (h *Hierarchy) L1I() *cache.Cache { return h.l1i }
func (h *Hierarchy) L1D() *cache.Cache { return h.l1d }
func (h *Hierarchy) L2() *cache.Cache  { return h.l2 }
func (h *Hierarchy) L3() *cache.Cache  { return h.l3 }
func (h *Hierarchy) ITLB() *tlb.TLB    { return h.itlb }
func (h *Hierarchy) DTLB() *tlb.TLB    { return h.dtlb }
func (h *Hierarchy) DRAM() *dram.DRAM  { return h.ram }
func (h *Hierarchy) Config() Config    { return h.u.cfg }

// Uncore returns the socket this core is attached to.
func (h *Hierarchy) Uncore() *Uncore { return h.u }

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
		h.u.backInvalidate(now, ev3)
		if fl3&cache.WritebackFlag != 0 {
			h.u.dramWrite(now, ev3)
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
	res.Latency = onChip + h.u.fill(now+onChip, addr, kind)
	return res
}

// fill times the line fill of an L3 miss that reaches memory at time at.
//
// Channel rule: only demand data fills — the loads and stores a core
// blocks on — wait for the shared DRAM channel and reserve it.
// Speculative and instruction fills, like posted write-backs, touch
// row-buffer state and count traffic but neither queue nor reserve.
// The reason is the model, not the hardware: busyUntil is one scalar
// and cores' clocks run microseconds apart (a shard's step is ~6 µs),
// so a fill its issuer never waits for would park the channel in the
// future of every core whose clock is behind. Measured when the walks
// merged: with speculative fills reserving, parallel SIRE/RSM fell
// from 3.73x to 2.39x on 4 cores; with instruction fills, a serving
// core's p99 at 160 W rose from 10.8 µs to 1.38 ms.
//
// One core cannot see the channel: it blocks on a demand fill for the
// whole latency and the channel is held for less, so its next fill
// always finds the channel free. Only another core's can be queued.
func (u *Uncore) fill(at simtime.Duration, addr uint64, kind AccessKind) simtime.Duration {
	u.dramBytes += u.lineBytes
	if kind > Store {
		return u.ram.Access(at, addr, false)
	}
	start := at
	if u.busyUntil > start {
		start = u.busyUntil
	}
	lat := u.ram.Access(start, addr, false)
	// The channel is held for the data transfer (64 B at ~6.4 GB/s
	// effective: ~10 ns), not the whole access latency.
	u.busyUntil = start + lat - 40*simtime.Nanosecond
	if u.busyUntil < start {
		u.busyUntil = start + 10*simtime.Nanosecond
	}
	return start - at + lat
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
	h.u.dramWrite(now, addr)
}

// dramWrite posts one line write to memory (row-buffer state and
// counters only; posted writes are not on the load critical path).
func (u *Uncore) dramWrite(now simtime.Duration, addr uint64) {
	u.ram.Access(now, addr, true)
	u.dramBytes += u.lineBytes
}

// backInvalidate enforces L3 inclusion: a line evicted from L3 may not
// survive in any core's inner levels. A dirty inner copy is written to
// memory.
func (u *Uncore) backInvalidate(now simtime.Duration, addr uint64) {
	dirty := false
	for _, h := range u.cores {
		if h.l1d.Invalidate(addr) {
			dirty = true
		}
		h.l1i.Invalidate(addr)
		if h.l2.Invalidate(addr) {
			dirty = true
		}
	}
	if dirty {
		u.dramWrite(now, addr)
	}
}

// Gating is the hierarchy's power-gating posture, set by the BMC.
// Zero-valued fields mean "fully powered".
type Gating struct {
	L1Ways   int // per L1 cache; 0 means "all ways"
	L2Ways   int
	L3Ways   int
	ITLBWays int
	DTLBWays int
	DRAMDuty float64         // (0,1]; 1 means ungated
	DRAMGate dram.GateConfig // full gate config; Duty overrides OnFraction if set
}

// ways resolves a Gating field against the structure's full width.
func ways(v, full int) int {
	if v <= 0 {
		return full
	}
	return v
}

// Gate resolves the posture's memory-controller gating level.
func (g Gating) Gate() dram.GateConfig {
	gate := g.DRAMGate
	if gate.Period == 0 {
		gate = dram.Ungated
	}
	if g.DRAMDuty > 0 {
		gate.OnFraction = g.DRAMDuty
	}
	return gate
}

// gateCache gates a cache level down to n ways, writing the flushed
// dirty lines to memory (which touches no cache, so c's flush scratch
// stays valid through the walk).
func (u *Uncore) gateCache(now simtime.Duration, c *cache.Cache, n int) {
	for _, addr := range c.SetActiveWays(n) {
		u.dramWrite(now, addr)
	}
}

// ApplyPrivateGating reconfigures this core's L1s, L2 and TLBs to the
// posture g at time now.
func (h *Hierarchy) ApplyPrivateGating(now simtime.Duration, g Gating) {
	cfg := &h.u.cfg
	h.u.gateCache(now, h.l1d, ways(g.L1Ways, cfg.L1D.Ways))
	h.u.gateCache(now, h.l1i, ways(g.L1Ways, cfg.L1I.Ways))
	h.u.gateCache(now, h.l2, ways(g.L2Ways, cfg.L2.Ways))
	h.itlb.SetActiveWays(ways(g.ITLBWays, cfg.ITLB.Ways))
	h.dtlb.SetActiveWays(ways(g.DTLBWays, cfg.DTLB.Ways))
}

// ApplyGating reconfigures the shared L3 and the memory controller to
// the posture g at time now. A posture is applied private levels
// first, then here.
func (u *Uncore) ApplyGating(now simtime.Duration, g Gating) {
	n := ways(g.L3Ways, u.cfg.L3.Ways)
	u.gateCache(now, u.l3, n)
	if n < u.cfg.L3.Ways {
		// Inclusion after an L3 shrink: anything no longer in L3 must
		// leave the inner levels. Flushing every core's inner levels
		// entirely is the simple, conservative hardware response.
		for _, h := range u.cores {
			// Each walk is over the flushed cache's own scratch, valid
			// until that cache is flushed or gated again: the loop
			// bodies only Update the outer levels and write to memory,
			// and l2.Flush comes after the l1d walk has finished.
			for _, a := range h.l1d.Flush() {
				if h.l2.Update(a) || u.l3.Update(a) {
					continue
				}
				u.dramWrite(now, a)
			}
			h.l1i.Flush()
			for _, a := range h.l2.Flush() {
				if u.l3.Update(a) {
					continue
				}
				u.dramWrite(now, a)
			}
		}
	}
	u.ram.SetGate(g.Gate())
}

// GatedState summarizes the posture for the power model.
type GatedState struct {
	L1WaysGated      int // summed across L1I and L1D
	L2WaysGated      int
	L3WaysGated      int
	TLBGatedFraction float64
	DRAMDuty         float64
}

// Gated reports the posture of this core's private levels and of the
// shared levels behind them.
func (h *Hierarchy) Gated() GatedState {
	cfg := &h.u.cfg
	itlbFrac := 1 - float64(h.itlb.ActiveWays())/float64(cfg.ITLB.Ways)
	dtlbFrac := 1 - float64(h.dtlb.ActiveWays())/float64(cfg.DTLB.Ways)
	return GatedState{
		L1WaysGated:      (cfg.L1D.Ways - h.l1d.ActiveWays()) + (cfg.L1I.Ways - h.l1i.ActiveWays()),
		L2WaysGated:      cfg.L2.Ways - h.l2.ActiveWays(),
		L3WaysGated:      cfg.L3.Ways - h.l3.ActiveWays(),
		TLBGatedFraction: (itlbFrac + dtlbFrac) / 2,
		DRAMDuty:         h.ram.Gate().OnFraction,
	}
}

// Gated reports the whole socket's posture: private ways summed over
// the cores, the TLB fraction averaged over them, the shared levels
// once.
func (u *Uncore) Gated() GatedState {
	var g GatedState
	for _, h := range u.cores {
		c := h.Gated()
		g.L1WaysGated += c.L1WaysGated
		g.L2WaysGated += c.L2WaysGated
		g.TLBGatedFraction += c.TLBGatedFraction
		g.L3WaysGated, g.DRAMDuty = c.L3WaysGated, c.DRAMDuty
	}
	g.TLBGatedFraction /= float64(len(u.cores))
	return g
}

// Gated reports the posture g would put one core of geometry cfg in.
func (g Gating) Gated(cfg Config) GatedState {
	itlbFrac := 1 - float64(ways(g.ITLBWays, cfg.ITLB.Ways))/float64(cfg.ITLB.Ways)
	dtlbFrac := 1 - float64(ways(g.DTLBWays, cfg.DTLB.Ways))/float64(cfg.DTLB.Ways)
	return GatedState{
		L1WaysGated:      (cfg.L1D.Ways - ways(g.L1Ways, cfg.L1D.Ways)) + (cfg.L1I.Ways - ways(g.L1Ways, cfg.L1I.Ways)),
		L2WaysGated:      cfg.L2.Ways - ways(g.L2Ways, cfg.L2.Ways),
		L3WaysGated:      cfg.L3.Ways - ways(g.L3Ways, cfg.L3.Ways),
		TLBGatedFraction: (itlbFrac + dtlbFrac) / 2,
		DRAMDuty:         g.Gate().OnFraction,
	}
}

// TakeDRAMBytes returns and resets the socket's DRAM traffic
// accumulator; the machine divides by the elapsed interval to obtain
// bandwidth utilization for the power model.
func (u *Uncore) TakeDRAMBytes() uint64 {
	b := u.dramBytes
	u.dramBytes = 0
	return b
}

// ResetStats clears every component's counters (a PAPI reset), leaving
// contents and gating intact.
func (u *Uncore) ResetStats() {
	for _, h := range u.cores {
		h.l1i.ResetStats()
		h.l1d.ResetStats()
		h.l2.ResetStats()
		h.itlb.ResetStats()
		h.dtlb.ResetStats()
	}
	u.l3.ResetStats()
	u.ram.ResetStats()
	u.dramBytes = 0
}

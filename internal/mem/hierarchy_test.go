package mem

import (
	"testing"

	"nodecap/internal/simtime"
)

const freq = 2700 // MHz, the uncapped operating point

func TestDefaultConfigMatchesPaperGeometry(t *testing.T) {
	cfg := DefaultConfig()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"L1D size", cfg.L1D.SizeBytes, 32 << 10},
		{"L1I size", cfg.L1I.SizeBytes, 32 << 10},
		{"L2 size", cfg.L2.SizeBytes, 256 << 10},
		{"L3 size", cfg.L3.SizeBytes, 20 << 20},
		{"L1D ways", cfg.L1D.Ways, 8},
		{"L2 ways", cfg.L2.Ways, 8},
		{"L3 ways", cfg.L3.Ways, 20},
		{"line", cfg.L1D.LineBytes, 64},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestAccessLatenciesMatchStrideProbe checks the per-level access
// times against the values the paper's Figure 3 infers at 2.7 GHz:
// L1 ~1.5 ns, L2 ~3.5 ns, L3 ~8.6 ns, memory ~60 ns.
func TestAccessLatenciesMatchStrideProbe(t *testing.T) {
	h := New(DefaultConfig())
	addr := uint64(0x10000)
	// Warm the line all the way in.
	h.Access(0, freq, addr, Load)

	within := func(got simtime.Duration, lo, hi float64) bool {
		ns := got.Nanos()
		return ns >= lo && ns <= hi
	}

	// L1 hit.
	r := h.Access(0, freq, addr, Load)
	if r.Level != LevelL1 || !within(r.Latency, 1.2, 1.8) {
		t.Errorf("L1 hit: level=%v lat=%.2fns, want ~1.5ns", r.Level, r.Latency.Nanos())
	}

	// L2 hit: evict from L1 by filling its set (same set in L1: L1D
	// has 64 sets * 64 B = 4 KiB stride), keeping within one L2 set's
	// capacity not required — just touch 8 conflicting lines.
	for i := 1; i <= 8; i++ {
		h.Access(0, freq, addr+uint64(i)*4096, Load)
	}
	r = h.Access(0, freq, addr, Load)
	if r.Level != LevelL2 || !within(r.Latency, 3.0, 4.2) {
		t.Errorf("L2 hit: level=%v lat=%.2fns, want ~3.5ns", r.Level, r.Latency.Nanos())
	}

	// Memory access (cold line far away), issued once the ten fills
	// above — all started at time zero — have left the DRAM channel.
	r = h.Access(simtime.Microsecond, freq, 1<<30, Load)
	if r.Level != LevelMemory || !within(r.Latency, 55, 95) {
		t.Errorf("memory: level=%v lat=%.2fns, want ~60-90ns", r.Level, r.Latency.Nanos())
	}
}

func TestL3HitLatency(t *testing.T) {
	h := New(DefaultConfig())
	base := uint64(0x100000)
	// Evict from L1 and L2 but not the 20 MB L3: touch 9 lines that
	// conflict in L2 (L2 set stride = 512 sets * 64 B = 32 KiB).
	h.Access(0, freq, base, Load)
	for i := 1; i <= 9; i++ {
		h.Access(0, freq, base+uint64(i)*(32<<10), Load)
	}
	// The conflicting pages above also pushed base's page out of the
	// DTLB (32 KiB apart means only two DTLB sets absorb ten pages).
	// Re-warm the translation via a neighbouring line in the same page
	// so the measurement below isolates the L3 hit cost.
	h.Access(0, freq, base+64, Load)
	r := h.Access(0, freq, base, Load)
	if r.Level != LevelL3 {
		t.Fatalf("expected L3 hit, got %v", r.Level)
	}
	if ns := r.Latency.Nanos(); ns < 7.5 || ns > 10.5 {
		t.Errorf("L3 hit latency = %.2fns, want ~8.6ns", ns)
	}
}

func TestCacheLatencyScalesWithFrequency(t *testing.T) {
	h := New(DefaultConfig())
	addr := uint64(0x2000)
	h.Access(0, freq, addr, Load)
	fast := h.Access(0, 2700, addr, Load).Latency
	slow := h.Access(0, 1200, addr, Load).Latency
	ratio := float64(slow) / float64(fast)
	if ratio < 2.2 || ratio > 2.3 { // 2700/1200 = 2.25
		t.Errorf("L1 latency ratio 1.2GHz/2.7GHz = %.3f, want 2.25", ratio)
	}
}

func TestDRAMLatencyDoesNotScaleWithFrequency(t *testing.T) {
	h := New(DefaultConfig())
	fast := h.Access(0, 2700, 1<<30, Load).Latency
	slow := h.Access(0, 1200, 2<<30, Load).Latency
	// Both dominated by ~65 ns DRAM; the cycle part (cache lookups plus
	// a cold DTLB walk) differs by a few tens of ns.
	diff := slow.Nanos() - fast.Nanos()
	if diff < 0 || diff > 30 {
		t.Errorf("DRAM-bound latency gap across frequency = %.1fns", diff)
	}
}

func TestTLBMissPenalty(t *testing.T) {
	h := New(DefaultConfig())
	r := h.Access(0, freq, 0x5000, Load)
	if !r.TLBMiss {
		t.Error("cold access did not miss DTLB")
	}
	warm := h.Access(0, freq, 0x5000, Load)
	if warm.TLBMiss {
		t.Error("warm access missed DTLB")
	}
	if warm.Latency >= r.Latency {
		t.Errorf("TLB-hit access (%v) not faster than TLB-miss fill (%v)", warm.Latency, r.Latency)
	}
}

func TestIFetchUsesInstructionSide(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0, freq, 0x8000, IFetch)
	if h.L1I().Stats().Accesses != 1 || h.L1D().Stats().Accesses != 0 {
		t.Errorf("IFetch routed wrong: L1I=%d L1D=%d",
			h.L1I().Stats().Accesses, h.L1D().Stats().Accesses)
	}
	if h.ITLB().Stats().Accesses != 1 || h.DTLB().Stats().Accesses != 0 {
		t.Errorf("IFetch TLB routing: ITLB=%d DTLB=%d",
			h.ITLB().Stats().Accesses, h.DTLB().Stats().Accesses)
	}
}

func TestStoreMakesLineDirtyAndWritesBack(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0, freq, 0, Store)
	// Thrash the L1 set: stores to 8 more conflicting lines force the
	// dirty line out; the L2 (inclusive-ish) absorbs the write-back.
	for i := 1; i <= 8; i++ {
		h.Access(0, freq, uint64(i)*4096, Store)
	}
	if h.L1D().Stats().Writebacks == 0 {
		t.Error("no L1D writebacks recorded")
	}
}

func TestInclusionBackInvalidate(t *testing.T) {
	// Build a tiny hierarchy so L3 evictions are easy to force.
	cfg := DefaultConfig()
	cfg.L3.SizeBytes = 8 << 10 // 8 KiB, 2-way: 64 sets
	cfg.L3.Ways = 2
	h := New(cfg)
	// Three lines in the same L3 set: set stride = 64 sets * 64 B = 4 KiB.
	// All three also fit in one 8-way L1D set, so after the third load
	// the L3 evicts its LRU line (a — inner-level hits are silent and
	// do not refresh L3 recency) and must back-invalidate it from the
	// inner levels despite it being L1-resident.
	a, b, c := uint64(0), uint64(4096), uint64(8192)
	h.Access(0, freq, a, Load)
	h.Access(0, freq, b, Load)
	h.Access(0, freq, c, Load) // evicts a from L3
	if h.L1D().Contains(a) || h.L2().Contains(a) {
		t.Error("inclusion violated: a survives in inner level after L3 eviction")
	}
	if !h.L1D().Contains(b) || !h.L1D().Contains(c) {
		t.Error("b or c lost from L1D")
	}
}

// applyGating puts a one-core socket in posture g: the core's private
// levels, then the shared ones.
func applyGating(h *Hierarchy, now simtime.Duration, g Gating) {
	h.ApplyPrivateGating(now, g)
	h.Uncore().ApplyGating(now, g)
}

func TestApplyGatingAndGatedState(t *testing.T) {
	h := New(DefaultConfig())
	applyGating(h, 0, Gating{L1Ways: 4, L2Ways: 2, L3Ways: 4, ITLBWays: 1, DTLBWays: 2, DRAMDuty: 0.5})
	g := h.Gated()
	if g.L1WaysGated != 8 { // (8-4) on each of L1I and L1D
		t.Errorf("L1WaysGated = %d", g.L1WaysGated)
	}
	if g.L2WaysGated != 6 || g.L3WaysGated != 16 {
		t.Errorf("L2/L3 gated = %d/%d", g.L2WaysGated, g.L3WaysGated)
	}
	if g.DRAMDuty != 0.5 {
		t.Errorf("DRAMDuty = %v", g.DRAMDuty)
	}
	// (ITLB 3/4 gated + DTLB 2/4 gated)/2 = 0.625
	if g.TLBGatedFraction < 0.62 || g.TLBGatedFraction > 0.63 {
		t.Errorf("TLBGatedFraction = %v", g.TLBGatedFraction)
	}
	// Ungate everything.
	applyGating(h, 0, Gating{})
	g = h.Gated()
	if g.L1WaysGated != 0 || g.L2WaysGated != 0 || g.L3WaysGated != 0 || g.DRAMDuty != 1 {
		t.Errorf("ungated state = %+v", g)
	}
}

func TestGatingL3FlushesInnerLevels(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0, freq, 0x1000, Load)
	applyGating(h, 0, Gating{L3Ways: 4})
	if h.L1D().Contains(0x1000) || h.L2().Contains(0x1000) {
		t.Error("inner levels retain lines after L3 gating flush")
	}
}

func TestDRAMDutyGatingSlowsMisses(t *testing.T) {
	h := New(DefaultConfig())
	applyGating(h, 0, Gating{DRAMDuty: 0.05, DRAMGate: h.DRAM().Gate()})
	var total simtime.Duration
	n := 40
	for i := 0; i < n; i++ {
		// Arrival times spread across gate periods.
		now := simtime.Duration(i) * 337 * simtime.Microsecond
		total += h.Access(now, freq, uint64(1+i)<<20, Load).Latency
	}
	avg := total.Nanos() / float64(n)
	if avg < 1000 {
		t.Errorf("deep-gated average miss latency = %.0fns, want >1µs", avg)
	}
}

func TestTakeDRAMBytes(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0, freq, 1<<30, Load)
	if got := h.Uncore().TakeDRAMBytes(); got != 64 {
		t.Errorf("TakeDRAMBytes = %d, want 64", got)
	}
	if got := h.Uncore().TakeDRAMBytes(); got != 0 {
		t.Errorf("second TakeDRAMBytes = %d, want 0", got)
	}
}

func TestResetStats(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0, freq, 0x1000, Load)
	h.Access(0, freq, 0x1000, IFetch)
	h.Uncore().ResetStats()
	if h.L1D().Stats().Accesses != 0 || h.L1I().Stats().Accesses != 0 ||
		h.DTLB().Stats().Accesses != 0 || h.DRAM().Stats().Reads != 0 {
		t.Error("stats survive ResetStats")
	}
	// Contents survive.
	if r := h.Access(0, freq, 0x1000, Load); r.Level != LevelL1 {
		t.Errorf("contents lost: level = %v", r.Level)
	}
}

func TestAccessKindAndLevelStrings(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || IFetch.String() != "ifetch" {
		t.Error("AccessKind strings wrong")
	}
	if LevelL1.String() != "L1" || LevelMemory.String() != "memory" {
		t.Error("Level strings wrong")
	}
	if AccessKind(9).String() != "AccessKind(9)" || Level(9).String() != "Level(9)" {
		t.Error("fallback strings wrong")
	}
}

func TestWritebackCascadesToMemory(t *testing.T) {
	// A dirty line evicted from L1D whose copy is absent from L2 and
	// L3 must be posted to DRAM.
	cfg := DefaultConfig()
	cfg.L3.SizeBytes = 8 << 10 // tiny L3 so back-invalidation is easy
	cfg.L3.Ways = 2
	h := New(cfg)

	h.Access(0, freq, 0, Store) // dirty in L1D, resident in L3
	// Evict the line from L3 (back-invalidates L1D/L2, writes to DRAM
	// because the L1 copy was dirty).
	h.Access(0, freq, 4096, Load)
	h.Access(0, freq, 8192, Load)
	if h.DRAM().Stats().Writes == 0 {
		t.Error("dirty back-invalidated line never reached DRAM")
	}
	if h.L1D().Contains(0) {
		t.Error("inclusion violated after dirty back-invalidation")
	}
}

func TestGatingFlushWritesDirtyLines(t *testing.T) {
	h := New(DefaultConfig())
	// Dirty all 20 ways of one L3 set (set stride = 16384 sets x 64 B
	// = 1 MiB): the L1/L2 cascade pushes the dirty copies down into the
	// L3. Gating the L3 to one way must flush the dirty lines held in
	// the disabled ways out to memory.
	for i := 0; i < 20; i++ {
		h.Access(0, freq, uint64(i)<<20, Store)
	}
	before := h.DRAM().Stats().Writes
	applyGating(h, 0, Gating{L3Ways: 1})
	if got := h.DRAM().Stats().Writes; got <= before {
		t.Errorf("gating flush produced no DRAM writes (before %d, after %d)", before, got)
	}
}

func TestHierarchyAccessors(t *testing.T) {
	cfg := DefaultConfig()
	h := New(cfg)
	if h.L3().Config().SizeBytes != 20<<20 {
		t.Error("L3 accessor wrong")
	}
	if h.Config().DRAM.Banks != cfg.DRAM.Banks {
		t.Error("Config accessor wrong")
	}
}

func TestNewDefaultsPeakBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PeakBytesPerSec = 0
	h := New(cfg)
	if h.Config().PeakBytesPerSec <= 0 {
		t.Error("PeakBytesPerSec not defaulted")
	}
}

func TestLevelStringsComplete(t *testing.T) {
	if LevelL2.String() != "L2" || LevelL3.String() != "L3" {
		t.Error("level strings wrong")
	}
	if Store.String() != "store" {
		t.Error("kind string wrong")
	}
}

func TestDirtyL2WritebackReachesL3(t *testing.T) {
	h := New(DefaultConfig())
	// Dirty a line, evict it from L1 into L2 (dirty), then force its
	// eviction from L2: the write-back should land in L3 (Update hit),
	// not DRAM.
	base := uint64(0x200000)
	h.Access(0, freq, base, Store)
	for i := 1; i <= 8; i++ {
		h.Access(0, freq, base+uint64(i)*4096, Store) // same L1 set
	}
	writesBefore := h.DRAM().Stats().Writes
	for i := 1; i <= 9; i++ {
		h.Access(0, freq, base+uint64(i)*(32<<10), Load) // same L2 set
	}
	// The L3 still holds the line, so no *new* critical writes beyond
	// row traffic are required; the line must be recoverable at L3.
	r := h.Access(0, freq, base, Load)
	if r.Level == LevelMemory {
		t.Error("dirty line lost to memory instead of L3")
	}
	_ = writesBefore
}

// TestSocketSharesUncoreAcrossCores checks what two cores attached to
// one uncore share and what they do not: a line one core fetched hits
// the other's L3 lookup, an L3 eviction back-invalidates it from both
// cores' private levels, an L3 shrink flushes both, and the socket's
// posture sums private ways over the cores while counting L3 once.
func TestSocketSharesUncoreAcrossCores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L3.SizeBytes = 8 << 10 // 2-way, 64 sets: set stride 4 KiB
	cfg.L3.Ways = 2
	u := NewUncore(cfg, nil)
	a, b := u.Attach(nil), u.Attach(nil)
	if a.L3() != b.L3() || a.DRAM() != b.DRAM() || a.L2() == b.L2() {
		t.Fatal("cores must share L3 and DRAM and own their L2")
	}

	const x, y, z = uint64(0), uint64(4096), uint64(8192) // one L3 set
	a.Access(0, freq, x, Store)
	if r := b.Access(0, freq, x, Load); r.Level != LevelL3 {
		t.Errorf("core b found core a's line at %v, want L3", r.Level)
	}
	writes := u.ram.Stats().Writes
	b.Access(0, freq, y, Load)
	b.Access(0, freq, z, Load) // evicts x from L3
	if a.L1D().Contains(x) || a.L2().Contains(x) || b.L1D().Contains(x) || b.L2().Contains(x) {
		t.Error("inclusion violated: x survives in a private level after its L3 eviction")
	}
	if u.ram.Stats().Writes == writes {
		t.Error("core a's dirty copy of x was dropped without a write to memory")
	}

	a.Access(0, freq, x, Load)
	a.ApplyPrivateGating(0, Gating{L2Ways: 2})
	u.ApplyGating(0, Gating{L3Ways: 1})
	if a.L1D().Contains(x) || b.L1D().Contains(z) {
		t.Error("an L3 shrink left lines in a core's L1D")
	}
	g := u.Gated()
	if g.L2WaysGated != 6 || g.L3WaysGated != 1 || b.Gated().L2WaysGated != 0 {
		t.Errorf("socket posture = %+v, want core a's 6 gated L2 ways and the L3's 1", g)
	}
	if want := (Gating{L2Ways: 2, L3Ways: 1}).Gated(cfg); a.Gated() != want {
		t.Errorf("core a reports %+v, the posture alone predicts %+v", a.Gated(), want)
	}
}

package multicore

import (
	"testing"

	"nodecap/internal/bmc"
	"nodecap/internal/machine"
	"nodecap/internal/simtime"
)

// spinWork is a trivially parallel compute shard set: each shard runs
// a fixed number of compute+L1 iterations.
type spinWork struct {
	iters int
	base  uint64
}

func (w *spinWork) Name() string   { return "spin" }
func (w *spinWork) CodePages() int { return 8 }
func (w *spinWork) Shards(cores int, alloc func(int) uint64) []Shard {
	w.base = alloc(1 << 20)
	out := make([]Shard, cores)
	for i := range out {
		out[i] = &spinShard{w: w, left: w.iters, off: uint64(i) * 4096}
	}
	return out
}

type spinShard struct {
	w    *spinWork
	left int
	off  uint64
	i    int
}

func (s *spinShard) Step(c *machine.CoreHandle) bool {
	if s.left <= 0 {
		return false
	}
	s.left--
	s.i++
	c.Compute(30, 24)
	c.Load(s.w.base + s.off + uint64(s.i%64)*64)
	return s.left > 0
}

// streamWork shards stream disjoint halves of a > L3 buffer: DRAM
// channel contention limits their combined speedup.
type streamWork struct {
	bytes int
	base  uint64
}

func (w *streamWork) Name() string   { return "stream" }
func (w *streamWork) CodePages() int { return 8 }
func (w *streamWork) Shards(cores int, alloc func(int) uint64) []Shard {
	w.base = alloc(w.bytes)
	per := w.bytes / cores / 8
	out := make([]Shard, cores)
	for i := range out {
		out[i] = &streamShard{w: w, idx: i * per, end: (i + 1) * per}
	}
	return out
}

type streamShard struct {
	w        *streamWork
	idx, end int
}

func (s *streamShard) Step(c *machine.CoreHandle) bool {
	if s.idx >= s.end {
		return false
	}
	for n := 0; n < 8 && s.idx < s.end; n++ {
		c.Load(s.w.base + uint64(s.idx)*8)
		c.Compute(4, 3)
		s.idx++
	}
	return s.idx < s.end
}

// romley is the paper's platform widened to cores cores.
func romley(cores int) machine.Config {
	cfg := machine.Romley()
	cfg.Cores = cores
	return cfg
}

func run(t *testing.T, cores int, w Workload, capWatts float64) Result {
	t.Helper()
	m := machine.New(romley(cores))
	m.SetPolicy(capWatts)
	return Run(m, w)
}

func TestSingleCoreMatchesShape(t *testing.T) {
	r := run(t, 1, &spinWork{iters: 400000}, 0)
	if r.AvgPowerWatts < 140 || r.AvgPowerWatts > 158 {
		t.Errorf("1-core busy power = %.1f W", r.AvgPowerWatts)
	}
	if r.AvgFreqMHz != 2700 {
		t.Errorf("uncapped frequency = %.0f", r.AvgFreqMHz)
	}
}

func TestComputeBoundScalesNearLinearly(t *testing.T) {
	// Per-shard fixed work: wall time should stay ~constant as cores
	// grow (weak scaling) for compute-bound shards.
	one := run(t, 1, &spinWork{iters: 200000}, 0)
	four := run(t, 4, &spinWork{iters: 200000}, 0)
	ratio := four.ExecTime.Seconds() / one.ExecTime.Seconds()
	if ratio > 1.25 {
		t.Errorf("weak-scaling wall ratio 4c/1c = %.2f, want ~1.0", ratio)
	}
}

func TestMorePowerWithMoreCores(t *testing.T) {
	one := run(t, 1, &spinWork{iters: 150000}, 0)
	eight := run(t, 8, &spinWork{iters: 150000}, 0)
	if eight.AvgPowerWatts <= one.AvgPowerWatts+40 {
		t.Errorf("8-core power %.1f W not well above 1-core %.1f W",
			eight.AvgPowerWatts, one.AvgPowerWatts)
	}
}

func TestMemoryBoundContention(t *testing.T) {
	// Strong scaling of a fixed-size stream: the shared DRAM channel
	// caps speedup well below core count.
	total := 48 << 20
	one := run(t, 1, &streamWork{bytes: total}, 0)
	eight := run(t, 8, &streamWork{bytes: total}, 0)
	speedup := eight.SpeedupOver(one)
	if speedup < 1.2 {
		t.Errorf("8-core stream speedup = %.2f, want > 1.2", speedup)
	}
	if speedup > 6.5 {
		t.Errorf("8-core stream speedup = %.2f; DRAM contention should cap it below ~6.5", speedup)
	}
}

func TestCapThrottlesHarderWithMoreCores(t *testing.T) {
	// The same cap must cost multi-core runs more frequency: eight
	// busy cores draw far more than one, so a 260 W cap that leaves a
	// single core untouched forces deep DVFS on eight (eight busy
	// cores' leakage alone puts the floor near 240 W).
	one := run(t, 1, &spinWork{iters: 150000}, 260)
	eight := run(t, 8, &spinWork{iters: 150000}, 260)
	if one.AvgFreqMHz < 2650 {
		t.Errorf("1-core at 260 W cap throttled to %.0f MHz", one.AvgFreqMHz)
	}
	if eight.AvgFreqMHz > 2300 {
		t.Errorf("8-core at 260 W cap ran at %.0f MHz; expected deep throttling", eight.AvgFreqMHz)
	}
	if eight.AvgPowerWatts > 263 {
		t.Errorf("8-core capped power = %.1f W above cap", eight.AvgPowerWatts)
	}
}

func TestPackageDVFSAppliesToAllCores(t *testing.T) {
	// The plant as the BMC sees it, captured on its way in.
	var p bmc.Plant
	cfg := romley(4)
	cfg.WrapPlant = func(inner bmc.Plant) bmc.Plant { p = inner; return inner }
	m := machine.New(cfg)
	p.SetPState(10)
	for i, c := range m.Cores() {
		if c.Core().PStateIndex() != 10 {
			t.Errorf("core %d P-state = %d", i, c.Core().PStateIndex())
		}
	}
}

func TestGatingAppliesToSharedAndPrivate(t *testing.T) {
	m := machine.New(romley(2))
	l3 := m.Hierarchy().L3()
	m.ForceGatingLevel(5)
	if l3.ActiveWays() != 4 {
		t.Errorf("shared L3 ways = %d, want 4", l3.ActiveWays())
	}
	for i, c := range m.Cores() {
		if c.Hierarchy().L3() != l3 {
			t.Errorf("core %d has its own L3", i)
		}
		if c.Hierarchy().L2().ActiveWays() != 2 {
			t.Errorf("core %d L2 ways = %d, want 2", i, c.Hierarchy().L2().ActiveWays())
		}
		if c.Hierarchy().ITLB().ActiveWays() != 1 {
			t.Errorf("core %d ITLB ways = %d", i, c.Hierarchy().ITLB().ActiveWays())
		}
	}
	m.ForceGatingLevel(0)
	if l3.ActiveWays() != 20 {
		t.Errorf("L3 not ungated: %d ways", l3.ActiveWays())
	}
}

func TestSharedL3Visible(t *testing.T) {
	// A line loaded by core 0 must hit in L3 when core 1 misses its
	// private levels.
	m := machine.New(romley(2))
	c0, c1 := m.Cores()[0], m.Cores()[1]
	l3 := m.Hierarchy().L3()
	addr := uint64(1 << 31)
	c0.Load(addr)
	before := l3.Stats().Misses
	c1.Load(addr)
	if l3.Stats().Misses != before {
		t.Error("core 1 missed L3 on a line core 0 fetched")
	}
}

// coldMiss is the latency of a demand load that misses the DTLB and
// every cache level and opens a new DRAM row with the channel free:
// the first load of a node with nothing else on it.
func coldMiss() simtime.Duration {
	return timedLoad(machine.New(romley(1)).CoreHandle, 1<<31)
}

// timedLoad reports how long one load took on c's clock.
func timedLoad(c *machine.CoreHandle, addr uint64) simtime.Duration {
	t := c.Now()
	c.Load(addr)
	return c.Now() - t
}

// TestDRAMChannelSerializes pins the contended half of the
// channel rule: two cores missing to DRAM at the same instant take
// turns, and the second waits out the first's hold on the channel —
// its access less the 40 ns that overlap the next one.
func TestDRAMChannelSerializes(t *testing.T) {
	cfg := romley(2)
	m := machine.New(cfg)
	c0, c1 := m.Cores()[0], m.Cores()[1]
	if c0.Now() != c1.Now() {
		t.Fatalf("cores start at %v and %v, want the same instant", c0.Now(), c1.Now())
	}
	first := timedLoad(c0, 1<<31)
	second := timedLoad(c1, 1<<31+1<<26) // another row of another bank
	if first != coldMiss() {
		t.Errorf("first miss took %v, want the uncontended %v", first, coldMiss())
	}
	hold := simtime.FromNanos(cfg.Hierarchy.DRAM.RowMissNanos) - 40*simtime.Nanosecond
	if second-first != hold {
		t.Errorf("second miss took %v, %v longer than the first; want %v longer", second, second-first, hold)
	}
}

// TestOnlyDemandMissesHoldTheChannel pins the converse: a core whose
// DRAM traffic is all speculative fills, instruction fills and posted
// write-backs — however much of it, stamped however far into another
// core's future — does not lengthen that core's demand miss.
func TestOnlyDemandMissesHoldTheChannel(t *testing.T) {
	cfg := romley(2)
	cfg.Ladder = machine.GatingLadder{{}, {L1Ways: 1}} // level 1 flushes L1D ways 1-7
	m := machine.New(cfg)
	c0, c1 := m.Cores()[0], m.Cores()[1]
	ram := m.Hierarchy().DRAM()

	// Core 0 dirties 31 even lines of one page and a line that shares
	// an L1D set with the first — demand fills, long before the
	// measurement.
	const lines = 31 // coprime with SpecEvery, so run-ahead visits every odd line
	base := m.Alloc(2 << 12)
	for i := uint64(0); i < lines; i++ {
		c0.Store(base + i*128)
	}
	c0.Store(base + 4096)
	const at = simtime.Millisecond
	c0.Sleep(at - c0.Now())
	c1.Sleep(at - c1.Now())

	// From the measurement instant on, core 0 only re-reads its resident
	// lines: every data access hits the L1D, so what reaches DRAM is the
	// run-ahead loads of the cold odd lines, the fetches of cold code,
	// and then the dirty line the L1D shrink flushes.
	l1d := c0.Hierarchy().L1D()
	ramBefore, missBefore, loadsBefore := ram.Stats(), l1d.Stats().ReadMisses, c0.Core().LoadsExecuted
	const passes = 64
	for n := 0; n < passes; n++ {
		for i := uint64(0); i < lines; i++ {
			c0.Load(base + i*128)
		}
	}
	specLoads := c0.Core().LoadsExecuted - loadsBefore - passes*lines
	specMisses := l1d.Stats().ReadMisses - missBefore
	m.ForceGatingLevel(1)
	ramAfter := ram.Stats()
	if specMisses < 16 || ramAfter.Reads-ramBefore.Reads < specMisses+16 || ramAfter.Writes == ramBefore.Writes {
		t.Fatalf("core 0 put %d reads (%d speculative) and %d writes on DRAM; the test needs speculative fills, instruction fills and a write-back",
			ramAfter.Reads-ramBefore.Reads, specMisses, ramAfter.Writes-ramBefore.Writes)
	}
	if specMisses > specLoads {
		t.Fatalf("core 0's L1D saw %d read misses from %d speculative loads: a demand load missed", specMisses, specLoads)
	}
	if c0.Now() <= at+simtime.Microsecond {
		t.Fatalf("core 0 only reached %v; its traffic should run well past %v", c0.Now(), at)
	}

	if got := timedLoad(c1, 1<<31); got != coldMiss() {
		t.Errorf("core 1's demand miss took %v behind core 0's non-demand traffic, want the uncontended %v", got, coldMiss())
	}
}

func TestRunPanicsOnShardMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on shard mismatch")
		}
	}()
	Run(machine.New(romley(2)), badWorkload{})
}

type badWorkload struct{}

func (badWorkload) Name() string                         { return "bad" }
func (badWorkload) CodePages() int                       { return 1 }
func (badWorkload) Shards(int, func(int) uint64) []Shard { return nil }

func TestNewRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero cores")
		}
	}()
	machine.New(romley(0))
}

func TestEventsAdvanceWithCores(t *testing.T) {
	m := machine.New(romley(2))
	m.SetPolicy(150)
	Run(m, &spinWork{iters: 100000})
	if m.BMC().Stats().Ticks == 0 {
		t.Error("no BMC ticks during multi-core run")
	}
	if m.Meter().Len() == 0 {
		t.Error("no meter samples during multi-core run")
	}
}

func TestResultCountersSummed(t *testing.T) {
	r := run(t, 4, &spinWork{iters: 50000}, 0)
	// 4 shards x 50000 iters x (24+1) committed instructions, plus
	// memops' own commits: at least 4*50000*25.
	if r.Counters.InstructionsCommitted < 4*50000*25 {
		t.Errorf("summed committed = %d", r.Counters.InstructionsCommitted)
	}
	if len(r.PerCoreBusy) != 4 {
		t.Errorf("PerCoreBusy = %d entries", len(r.PerCoreBusy))
	}
	var _ simtime.Duration = r.ExecTime
}

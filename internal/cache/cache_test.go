package cache

import (
	"math/rand"
	"testing"

	"nodecap/internal/lru"
	"testing/quick"
)

// tiny returns a small cache for direct-inspection tests:
// 4 sets x 2 ways x 64 B lines = 512 B.
func tiny() *Cache {
	return New(Config{Name: "T", SizeBytes: 512, LineBytes: 64, Ways: 2, WriteBack: true})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if good.Sets() != 64 {
		t.Errorf("Sets = %d, want 64", good.Sets())
	}
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 64, Ways: 8},
		{Name: "b", SizeBytes: 32 << 10, LineBytes: 48, Ways: 8}, // line not pow2
		{Name: "c", SizeBytes: 33 << 10, LineBytes: 64, Ways: 8}, // not divisible
		{Name: "d", SizeBytes: 24 << 10, LineBytes: 64, Ways: 8}, // sets = 48, not pow2
		{Name: "e", SizeBytes: 32 << 10, LineBytes: 64, Ways: -1},
		{Name: "f", SizeBytes: 128 * 64, LineBytes: 64, Ways: 128}, // more ways than an LRU key indexes
	}
	if err := (Config{Name: "max", SizeBytes: lru.MaxWays * 64, LineBytes: 64, Ways: lru.MaxWays}).Validate(); err != nil {
		t.Errorf("%d ways rejected: %v", lru.MaxWays, err)
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted, want error", c.Name)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with bad config did not panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 100, LineBytes: 64, Ways: 2})
}

func TestPaperGeometries(t *testing.T) {
	// The four caches of the E5-2680 from Section III of the paper.
	for _, cfg := range []Config{
		{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8},
		{Name: "L3", SizeBytes: 20 << 20, LineBytes: 64, Ways: 20},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := tiny()
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(0x1038, false); !r.Hit { // same 64 B line
		t.Error("same-line access missed")
	}
	if r := c.Access(0x1040, false); r.Hit { // next line
		t.Error("next-line access hit")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 2-way: three distinct tags in one set evict the LRU one
	// Set stride is 4 sets * 64 B = 256 B.
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200) // same set 0
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU, b is LRU
	c.Access(d, false) // evicts b
	if !c.Contains(a) {
		t.Error("a evicted, want b")
	}
	if c.Contains(b) {
		t.Error("b still resident")
	}
	if !c.Contains(d) {
		t.Error("d not resident")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := tiny()
	c.Access(0x0000, true)  // dirty
	c.Access(0x0100, false) // clean
	r := c.Access(0x0200, false)
	// LRU victim is 0x0000 (dirty) -> must report a write-back.
	if !r.WritebackValid || r.WritebackAddr != 0x0000 {
		t.Errorf("writeback = %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := tiny()
	c.Access(0x0000, false)
	c.Access(0x0100, false)
	r := c.Access(0x0200, false)
	if r.WritebackValid {
		t.Errorf("clean eviction produced writeback %+v", r)
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := New(Config{Name: "WT", SizeBytes: 512, LineBytes: 64, Ways: 2, WriteBack: false})
	if r := c.Access(0x0000, true); r.Hit {
		t.Error("cold write hit")
	}
	if c.Contains(0x0000) {
		t.Error("write-miss allocated in no-allocate cache")
	}
	c.Access(0x0000, false) // read fill
	if !c.Contains(0x0000) {
		t.Error("read did not allocate")
	}
	if r := c.Access(0x0000, true); !r.Hit {
		t.Error("write to resident line missed")
	}
}

func TestWayGatingFlushesAndShrinks(t *testing.T) {
	c := tiny()
	c.Access(0x0000, true)  // way 0, dirty
	c.Access(0x0100, false) // way 1, clean
	dirty := c.SetActiveWays(1)
	if c.ActiveWays() != 1 {
		t.Fatalf("ActiveWays = %d", c.ActiveWays())
	}
	if len(dirty) != 0 {
		// Which way holds which line depends on fill order: way 0 got
		// 0x0000 (dirty). Gating disables way 1 which holds the clean
		// line, so no dirty flushes.
		t.Errorf("dirty flushes = %v", dirty)
	}
	if c.Contains(0x0100) {
		t.Error("line in gated way still resident")
	}
	if !c.Contains(0x0000) {
		t.Error("line in active way lost")
	}
	if c.Stats().GateFlush != 1 {
		t.Errorf("GateFlush = %d", c.Stats().GateFlush)
	}
}

func TestWayGatingReportsDirtyFlushes(t *testing.T) {
	c := tiny()
	c.Access(0x0000, false) // way 0 clean
	c.Access(0x0100, true)  // way 1 dirty
	dirty := c.SetActiveWays(1)
	if len(dirty) != 1 || dirty[0] != 0x0100 {
		t.Errorf("dirty flushes = %#x", dirty)
	}
}

func TestWayGatingClamps(t *testing.T) {
	c := tiny()
	c.SetActiveWays(0)
	if c.ActiveWays() != 1 {
		t.Errorf("ActiveWays after gate-to-0 = %d", c.ActiveWays())
	}
	c.SetActiveWays(99)
	if c.ActiveWays() != 2 {
		t.Errorf("ActiveWays after ungate-to-99 = %d", c.ActiveWays())
	}
}

func TestGatingIncreasesConflictMisses(t *testing.T) {
	// With 2 ways, alternating between two same-set lines hits after
	// warmup. With 1 way they thrash: every access misses.
	run := func(ways int) uint64 {
		c := tiny()
		c.SetActiveWays(ways)
		c.ResetStats()
		for i := 0; i < 100; i++ {
			c.Access(0x0000, false)
			c.Access(0x0100, false)
		}
		return c.Stats().Misses
	}
	full, gated := run(2), run(1)
	if full != 2 {
		t.Errorf("full-ways misses = %d, want 2 (compulsory only)", full)
	}
	if gated != 200 {
		t.Errorf("gated misses = %d, want 200 (thrash)", gated)
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	c.Access(0x0000, true)
	c.Access(0x0100, false)
	dirty := c.Flush()
	if len(dirty) != 1 || dirty[0] != 0x0000 {
		t.Errorf("Flush dirty = %#x", dirty)
	}
	if c.Contains(0x0000) || c.Contains(0x0100) {
		t.Error("lines survive Flush")
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Access(0x0000, true)
	if !c.Invalidate(0x0000) {
		t.Error("Invalidate of dirty line reported clean")
	}
	if c.Contains(0x0000) {
		t.Error("line survives Invalidate")
	}
	if c.Invalidate(0x4000) {
		t.Error("Invalidate of absent line reported dirty")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := tiny()
	c.Access(0x0000, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("stats not reset")
	}
	if r := c.Access(0x0000, false); !r.Hit {
		t.Error("contents lost on ResetStats")
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	c := New(Config{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8, WriteBack: true})
	f := func(a uint64) bool {
		line := c.LineAddr(a)
		set, tag := c.indexOf(a)
		return c.reconstruct(set, tag) == line
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLRUStackProperty checks the inclusion (stack) property of LRU:
// for the same access trace, a cache with more ways never misses more
// than one with fewer ways. This is the invariant that makes
// way-gating monotonically harmful, which the stereo-matching blow-up
// in the paper depends on.
func TestLRUStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]uint64, 2000)
		for i := range trace {
			trace[i] = uint64(rng.Intn(64)) * 64 // 64 distinct lines
		}
		// Writes must be identical across configurations for the
		// traces to be comparable, so precompute them.
		writes := make([]bool, len(trace))
		for i := range writes {
			writes[i] = rng.Intn(2) == 0
		}
		// Same set count (16), varying ways: misses must be
		// non-decreasing as associativity shrinks.
		var prev uint64
		first := true
		for _, ways := range []int{8, 4, 2, 1} {
			c := New(Config{Name: "P", SizeBytes: 64 * 16 * ways, LineBytes: 64, Ways: ways, WriteBack: true})
			for i, a := range trace {
				c.Access(a, writes[i])
			}
			m := c.Stats().Misses
			if !first && m < prev {
				return false
			}
			prev, first = m, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestHitsPlusMissesEqualsAccesses is a basic accounting invariant
// under arbitrary traces.
func TestHitsPlusMissesEqualsAccesses(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		c := New(Config{Name: "Q", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, WriteBack: true})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Accesses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUpdate(t *testing.T) {
	c := tiny()
	if c.Update(0x0000) {
		t.Error("Update of absent line reported hit")
	}
	if c.Contains(0x0000) {
		t.Error("Update allocated")
	}
	c.Access(0x0000, false) // clean fill
	if !c.Update(0x0000) {
		t.Error("Update of resident line reported miss")
	}
	// The line is now dirty: evicting it must produce a write-back.
	c.Access(0x0100, false)
	r := c.Access(0x0200, false)
	if !r.WritebackValid || r.WritebackAddr != 0x0000 {
		t.Errorf("eviction after Update: %+v", r)
	}
}

func TestEvictionAddressReported(t *testing.T) {
	c := tiny()
	c.Access(0x0000, false) // clean
	c.Access(0x0100, false)
	r := c.Access(0x0200, false)
	if !r.EvictedValid || r.EvictedAddr != 0x0000 {
		t.Errorf("clean eviction not reported: %+v", r)
	}
	if r.WritebackValid {
		t.Errorf("clean eviction flagged dirty: %+v", r)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty MissRate != 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if got := s.MissRate(); got != 0.3 {
		t.Errorf("MissRate = %v", got)
	}
}

func TestRandomReplacementLosesStackProperty(t *testing.T) {
	// Under LRU, a 2-line cyclic pattern in a 2-way set always hits
	// after warmup; Random replacement sometimes evicts the wrong way
	// and re-misses. This behavioural difference is what the
	// replacement ablation bench measures at scale.
	runPolicy := func(p ReplacementPolicy) uint64 {
		c := New(Config{Name: "R", SizeBytes: 512, LineBytes: 64, Ways: 2,
			WriteBack: true, Replacement: p})
		for i := 0; i < 300; i++ {
			c.Access(0x0000, false)
			c.Access(0x0100, false)
			c.Access(uint64(0x0200+(i%3)*0x100), false) // conflicting churn
		}
		return c.Stats().Misses
	}
	lru, random := runPolicy(LRU), runPolicy(Random)
	if lru == random {
		t.Errorf("LRU (%d) and Random (%d) miss counts identical; policies not distinct", lru, random)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	run := func() uint64 {
		c := New(Config{Name: "R", SizeBytes: 512, LineBytes: 64, Ways: 2,
			WriteBack: true, Replacement: Random})
		for i := 0; i < 500; i++ {
			c.Access(uint64(i%5)*0x100, false)
		}
		return c.Stats().Misses
	}
	if run() != run() {
		t.Error("Random replacement not deterministic across identical runs")
	}
}

// TestDirtyDataNeverSilentlyDropped: every line ever stored must leave
// the cache through an observable dirty channel — an eviction
// write-back, a gating flush, or a final Flush — at least once. This
// is the property the hierarchy's write-back plumbing depends on: a
// violation means modified data vanished.
func TestDirtyDataNeverSilentlyDropped(t *testing.T) {
	f := func(ops []uint16, gateAt uint8) bool {
		c := New(Config{Name: "P", SizeBytes: 2 << 10, LineBytes: 64, Ways: 4, WriteBack: true})
		stored := map[uint64]bool{}
		emitted := map[uint64]bool{}
		note := func(r AccessResult) {
			if r.WritebackValid {
				emitted[r.WritebackAddr] = true
			}
		}
		for i, op := range ops {
			addr := uint64(op%512) * 64 // 512 lines over an 8-set cache
			write := op&0x8000 != 0
			if write {
				stored[addr] = true
			}
			note(c.Access(addr, write))
			if i == int(gateAt) {
				for _, a := range c.SetActiveWays(1 + int(gateAt)%4) {
					emitted[a] = true
				}
			}
		}
		for _, a := range c.Flush() {
			emitted[a] = true
		}
		// Every stored line must have been emitted dirty somewhere.
		// (A stored line later re-read stays dirty in a write-back
		// cache, so reads cannot clean it.)
		for a := range stored {
			if !emitted[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

package tlb

import (
	"testing"
	"testing/quick"

	"nodecap/internal/lru"
)

func small() *TLB {
	// 8 entries, 2-way, 4 KiB pages -> 4 sets.
	return New(Config{Name: "S", Entries: 8, Ways: 2, PageBytes: 4096, MissPenaltyCycles: 30})
}

func TestValidate(t *testing.T) {
	good := Config{Name: "DTLB", Entries: 64, Ways: 4, PageBytes: 4096}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "a", Entries: 0, Ways: 4, PageBytes: 4096},
		{Name: "b", Entries: 63, Ways: 4, PageBytes: 4096},    // not divisible
		{Name: "c", Entries: 24, Ways: 4, PageBytes: 4096},    // sets = 6
		{Name: "d", Entries: 64, Ways: 4, PageBytes: 5000},    // page not pow2
		{Name: "e", Entries: 128, Ways: 128, PageBytes: 4096}, // more ways than an LRU key indexes
	}
	if err := (Config{Name: "max", Entries: lru.MaxWays, Ways: lru.MaxWays, PageBytes: 4096}).Validate(); err != nil {
		t.Errorf("%d ways rejected: %v", lru.MaxWays, err)
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted", c.Name)
		}
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(Config{Name: "bad", Entries: 63, Ways: 4, PageBytes: 4096})
}

func TestMissThenHit(t *testing.T) {
	tl := small()
	if tl.Lookup(0x1000) {
		t.Error("cold lookup hit")
	}
	if !tl.Lookup(0x1000) {
		t.Error("warm lookup missed")
	}
	if !tl.Lookup(0x1FFF) { // same 4 KiB page
		t.Error("same-page lookup missed")
	}
	if tl.Lookup(0x2000) { // next page
		t.Error("next-page lookup hit")
	}
	s := tl.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := small()                                            // 4 sets: pages p, p+4, ... map to the same set
	pg := func(i int) uint64 { return uint64(i) * 4 * 4096 } // all set 0
	tl.Lookup(pg(0))
	tl.Lookup(pg(1))
	tl.Lookup(pg(0)) // 0 MRU, 1 LRU
	tl.Lookup(pg(2)) // evicts 1
	if !tl.Lookup(pg(0)) {
		t.Error("MRU translation evicted")
	}
	if tl.Lookup(pg(1)) {
		t.Error("evicted translation still resident")
	}
}

func TestGatingShrinksReachAndDropsEntries(t *testing.T) {
	tl := small()
	if tl.Reach() != 8*4096 {
		t.Errorf("full Reach = %d", tl.Reach())
	}
	tl.Lookup(0x0000)
	tl.Lookup(0x4000) // same set, second way
	tl.SetActiveWays(1)
	if tl.ActiveWays() != 1 {
		t.Fatalf("ActiveWays = %d", tl.ActiveWays())
	}
	if tl.Reach() != 4*4096 {
		t.Errorf("gated Reach = %d", tl.Reach())
	}
	if tl.Stats().GateDrop != 1 {
		t.Errorf("GateDrop = %d", tl.Stats().GateDrop)
	}
}

func TestGatingCausesThrashing(t *testing.T) {
	// Two pages in one set: fine 2-way, thrash 1-way — the iTLB-miss
	// explosion mechanism.
	run := func(ways int) uint64 {
		tl := small()
		tl.SetActiveWays(ways)
		tl.ResetStats()
		for i := 0; i < 100; i++ {
			tl.Lookup(0x0000)
			tl.Lookup(0x4000)
		}
		return tl.Stats().Misses
	}
	if full := run(2); full != 2 {
		t.Errorf("2-way misses = %d, want 2", full)
	}
	if gated := run(1); gated != 200 {
		t.Errorf("1-way misses = %d, want 200", gated)
	}
}

func TestGatingClamps(t *testing.T) {
	tl := small()
	tl.SetActiveWays(-3)
	if tl.ActiveWays() != 1 {
		t.Errorf("ActiveWays = %d", tl.ActiveWays())
	}
	tl.SetActiveWays(100)
	if tl.ActiveWays() != 2 {
		t.Errorf("ActiveWays = %d", tl.ActiveWays())
	}
}

func TestFlush(t *testing.T) {
	tl := small()
	tl.Lookup(0x1000)
	tl.Flush()
	if tl.Lookup(0x1000) {
		t.Error("translation survives Flush")
	}
}

func TestResetStatsKeepsTranslations(t *testing.T) {
	tl := small()
	tl.Lookup(0x1000)
	tl.ResetStats()
	if tl.Stats().Accesses != 0 {
		t.Error("stats not reset")
	}
	if !tl.Lookup(0x1000) {
		t.Error("translation lost")
	}
}

func TestAccountingInvariant(t *testing.T) {
	f := func(addrs []uint32) bool {
		tl := New(Config{Name: "Q", Entries: 16, Ways: 4, PageBytes: 4096})
		for _, a := range addrs {
			tl.Lookup(uint64(a))
		}
		s := tl.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Accesses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetWithinReachEventuallyAllHits(t *testing.T) {
	// Touch every page the TLB can hold twice; the second pass must be
	// all hits (LRU with sequential fill keeps the set resident).
	tl := New(Config{Name: "R", Entries: 64, Ways: 4, PageBytes: 4096})
	pages := tl.Reach() / 4096
	for p := int64(0); p < pages; p++ {
		tl.Lookup(uint64(p) * 4096)
	}
	tl.ResetStats()
	for p := int64(0); p < pages; p++ {
		tl.Lookup(uint64(p) * 4096)
	}
	if m := tl.Stats().Misses; m != 0 {
		t.Errorf("second pass misses = %d, want 0", m)
	}
}

// Package tlb models translation lookaside buffers with LRU
// replacement and entry gating.
//
// The paper's low-cap counter data shows instruction-TLB misses
// exploding by up to 8,481% while data-TLB misses stay nearly flat,
// which the authors attribute to power-management techniques that
// reconfigure architectural structures. Entry gating — powering down a
// fraction of the TLB's entries — is the mechanism modelled here.
package tlb

import (
	"fmt"
	"math/bits"

	"nodecap/internal/lru"
)

// Config describes a TLB's geometry.
type Config struct {
	Name      string
	Entries   int // total entries; Entries/Ways sets, power of two
	Ways      int
	PageBytes int // power of two; 4 KiB on the modelled platform
	// MissPenaltyCycles is the page-walk cost charged per miss, in
	// core cycles (the hardware walker competes with the core for the
	// cache ports, so it scales with frequency like cache latency).
	MissPenaltyCycles int
}

// Sets reports the number of sets.
func (c Config) Sets() int { return c.Entries / c.Ways }

// Validate reports an error for unrealizable geometry.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.PageBytes <= 0 {
		return fmt.Errorf("tlb %s: non-positive geometry %+v", c.Name, c)
	}
	if c.Ways > lru.MaxWays {
		return fmt.Errorf("tlb %s: %d ways exceeds the %d an LRU key can index", c.Name, c.Ways, lru.MaxWays)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb %s: entries %d not divisible by ways %d", c.Name, c.Entries, c.Ways)
	}
	if bits.OnesCount(uint(c.Sets())) != 1 {
		return fmt.Errorf("tlb %s: set count %d not a power of two", c.Name, c.Sets())
	}
	if bits.OnesCount(uint(c.PageBytes)) != 1 {
		return fmt.Errorf("tlb %s: page size %d not a power of two", c.Name, c.PageBytes)
	}
	return nil
}

// Stats counts TLB activity.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	GateDrop uint64 // entries dropped by gating
}

// MissRate reports misses per access, 0 when untouched.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// TLB is a set-associative translation buffer. Translations are
// identity-mapped (the simulator has no real page tables); only the
// hit/miss behaviour and its cost matter to the study.
//
// Entry state lives in one set-major slab laid out as the cache's is:
// set s owns the 2*ways words at entries[s*2*ways:], `ways` tag words
// (vpn-tag<<1|1 when valid, 0 when invalid, so a single
// load-and-compare decides a way) followed by `ways` LRU stamps (see
// package lru; translations are clean, so the dirty bit stays 0). A
// zeroed slab is an empty TLB.
type TLB struct {
	cfg        Config
	entries    []uint64 // per set: ways tag words, then ways LRU stamps
	setMask    uint64
	pageShift  uint
	tagShift   uint // set-index width; splits a vpn into set and tag
	ways       int
	activeWays int
	// mruIdx/mruVpn remember the last translation that hit: repeated
	// same-page accesses (any streaming workload touches a page ~64
	// line-accesses in a row) skip the set scan. mruIdx indexes the
	// entry's tag word (its stamp sits ways further on). It is never
	// reset: the filter compares that tag word, and an entry that has
	// been flushed or gated off no longer matches.
	mruIdx   int
	mruVpn   uint64
	useClock uint64
	stats    Stats
}

// New builds a TLB, panicking on invalid static geometry. The shifts
// and masks the lookup needs are precomputed here.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{
		cfg:        cfg,
		entries:    make([]uint64, cfg.Sets()*2*cfg.Ways),
		setMask:    uint64(cfg.Sets() - 1),
		pageShift:  uint(bits.TrailingZeros(uint(cfg.PageBytes))),
		tagShift:   uint(bits.Len64(uint64(cfg.Sets() - 1))),
		ways:       cfg.Ways,
		activeWays: cfg.Ways,
	}
}

// clear invalidates ways from..Ways-1 of every set, reporting how many
// held a translation.
func (t *TLB) clear(from int) (dropped uint64) {
	for base := 0; base < len(t.entries); base += 2 * t.ways {
		for i := base + from; i < base+t.ways; i++ {
			if t.entries[i] != 0 {
				dropped++
			}
			t.entries[i], t.entries[i+t.ways] = 0, 0
		}
	}
	return dropped
}

// Config returns the TLB geometry.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters, leaving translations resident.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// ActiveWays reports the number of powered ways.
func (t *TLB) ActiveWays() int { return t.activeWays }

// Lookup translates the page containing addr, reporting whether it hit.
// Misses install the translation (hardware-walked, identity-mapped).
func (t *TLB) Lookup(addr uint64) bool {
	t.stats.Accesses++
	t.useClock++
	vpn := addr >> t.pageShift
	tagv := (vpn>>t.tagShift)<<1 | 1
	touch := lru.Stamp(t.useClock)

	// MRU filter: a repeated-page access skips the set scan.
	if vpn == t.mruVpn && t.entries[t.mruIdx] == tagv {
		t.stats.Hits++
		t.entries[t.mruIdx+t.ways] = touch
		return true
	}

	base := int(vpn&t.setMask) * 2 * t.ways
	tags := t.entries[base : base+t.activeWays]
	for i, tg := range tags {
		if tg == tagv {
			t.stats.Hits++
			t.entries[base+t.ways+i] = touch
			t.mruVpn, t.mruIdx = vpn, base+i
			return true
		}
	}
	t.stats.Misses++
	// Install over the first invalid way, else the least recently used.
	stamps := t.entries[base+t.ways : base+t.ways+t.activeWays]
	victim, _ := lru.Split(lru.Oldest(stamps))
	tags[victim], stamps[victim] = tagv, touch
	t.mruVpn, t.mruIdx = vpn, base+victim
	return false
}

// SetActiveWays gates the TLB to n powered ways, clamped to
// [1, cfg.Ways]. Entries in disabled ways are dropped (translations
// are clean; nothing to write back).
func (t *TLB) SetActiveWays(n int) {
	if n < 1 {
		n = 1
	}
	if n > t.cfg.Ways {
		n = t.cfg.Ways
	}
	if n < t.activeWays {
		// Ways at and above the old activeWays are already invalid.
		t.stats.GateDrop += t.clear(n)
	}
	t.activeWays = n
}

// Flush invalidates all entries (e.g., on a context switch).
func (t *TLB) Flush() { t.clear(0) }

// Reach reports the bytes of address space covered by a fully
// populated TLB at the current gating level.
func (t *TLB) Reach() int64 {
	return int64(t.cfg.Sets()) * int64(t.activeWays) * int64(t.cfg.PageBytes)
}

// Package cache implements a set-associative cache model with true-LRU
// replacement, a write-back/write-allocate policy, and way gating.
//
// Way gating is the mechanism the paper infers for sub-DVFS power
// capping: the platform powers down some ways of a cache, shrinking
// its effective associativity and capacity. SetActiveWays models this,
// flushing (and reporting) the lines held in the disabled ways so that
// the hierarchy can charge write-back traffic for them.
package cache

import (
	"fmt"
	"math/bits"

	"nodecap/internal/lru"
)

// Config describes the geometry and timing of one cache level.
type Config struct {
	Name      string // "L1D", "L2", ... used in error and stats output
	SizeBytes int    // total capacity
	LineBytes int    // line size; power of two
	Ways      int    // associativity
	// HitLatencyCycles is the load-to-use latency of a hit, in core
	// cycles. The hierarchy converts it to time at the current
	// frequency.
	HitLatencyCycles int
	// WriteBack selects write-back/write-allocate (true) or
	// write-through/no-allocate (false) behaviour.
	WriteBack bool
	// Replacement selects the victim policy; the zero value is LRU.
	Replacement ReplacementPolicy
}

// ReplacementPolicy selects how a fill chooses its victim way.
type ReplacementPolicy int

const (
	// LRU evicts the least-recently-used line (true LRU). Its stack
	// property makes way gating monotonically harmful, which the
	// study's stereo-matching miss cliff depends on; the ablation
	// bench compares it against Random.
	LRU ReplacementPolicy = iota
	// Random evicts a pseudo-random way (deterministic xorshift).
	Random
)

// Sets reports the number of sets implied by the geometry.
func (c Config) Sets() int {
	return c.SizeBytes / (c.LineBytes * c.Ways)
}

// Validate reports a descriptive error when the geometry is not
// realizable (non-power-of-two line or set count, sizes that do not
// divide evenly, or non-positive fields).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.Ways > lru.MaxWays {
		return fmt.Errorf("cache %s: %d ways exceeds the %d an LRU key can index", c.Name, c.Ways, lru.MaxWays)
	}
	if bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways %d",
			c.Name, c.SizeBytes, c.LineBytes*c.Ways)
	}
	if s := c.Sets(); bits.OnesCount(uint(s)) != 1 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, s)
	}
	return nil
}

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	ReadMisses uint64
	Writebacks uint64 // dirty lines pushed to the next level
	Fills      uint64 // lines allocated
	GateFlush  uint64 // lines flushed by way gating
}

// MissRate reports misses per access, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit bool
	// WritebackAddr is the address of a dirty line evicted to make
	// room for the fill; valid only when WritebackValid is set.
	WritebackAddr  uint64
	WritebackValid bool
	// EvictedAddr is the address of any valid line (clean or dirty)
	// replaced by the fill; valid only when EvictedValid is set. An
	// inclusive outer level uses it to back-invalidate inner levels.
	EvictedAddr  uint64
	EvictedValid bool
}

// Cache is one level of a memory hierarchy. It tracks only tags and
// metadata; data contents live in the workload's real Go memory.
//
// All line state lives in one set-major slab: set s owns the 2*ways
// words at lines[s*2*ways:], `ways` tag words followed by `ways` LRU
// stamps, so one simulated access touches one contiguous run of host
// memory — for the 20-way L3, five adjacent host lines instead of one
// in each of four arrays, which matters because the outer levels'
// metadata (5 MB for the L3) does not fit the host's own L2. A zeroed
// slab is an empty cache, so New touches none of it.
//
// A tag word packs tag and valid bit into one comparable word, tag<<1|1
// when valid and 0 when invalid, so one load-and-compare decides a way.
// The packing is lossless for any address below 2^63 shifted down by
// at least one line-offset or set-index bit — every geometry this
// simulator builds (the machine lays its regions out below 2^31).
//
// A stamp is the line's last-use clock and dirty bit, 0 when invalid
// (see package lru): a fill's victim is one branch-free minimum over
// the active ways' stamps.
type Cache struct {
	cfg        Config
	lines      []uint64 // per set: ways tag words, then ways LRU stamps
	setMask    uint64
	lineShift  uint
	tagShift   uint // set-index width; splits a block into set and tag
	ways       int
	activeWays int
	writeback  bool // cfg.WriteBack, hoisted for the access path
	random     bool // cfg.Replacement == Random, hoisted likewise
	// mruIdx/mruBlk remember the last line that hit or filled: the MRU
	// filter in front of the set scan. Stream-dominated workloads (the
	// stride probe, SAR) touch the same line repeatedly, and a
	// repeated-line hit skips the scan entirely. mruIdx indexes the
	// line's tag word (its stamp sits ways further on). It is never
	// reset: the filter compares that tag word, and a line that has been
	// invalidated or gated off no longer matches.
	mruIdx   int
	mruBlk   uint64
	useClock uint64
	rng      uint64 // Random replacement state
	stats    Stats
	// flushed is the scratch SetActiveWays and Flush report dirty
	// addresses in, so a gating move allocates nothing once it has grown.
	flushed []uint64
}

// New builds a cache from cfg, panicking on invalid geometry: every
// configuration in this codebase is static, so a bad one is a
// programming error, not a runtime condition. The set mask, line
// shift, and tag shift are precomputed here so the per-access path
// never re-derives geometry.
func New(cfg Config) *Cache { return Recycle(cfg, nil) }

// Recycle is New over the storage of old, a cache nobody will use
// again (nil: there is none). When old's slab has the length cfg needs
// the new cache takes it, zeroed — an empty cache, exactly what New
// allocates — together with the flush scratch; every other field is
// built from cfg alone, so nothing of old's contents, gating, clock or
// counters carries over. old is left without a slab.
func Recycle(cfg Config, old *Cache) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var lines, flushed []uint64
	if n := cfg.Sets() * 2 * cfg.Ways; old != nil && len(old.lines) == n {
		lines, flushed = old.lines, old.flushed
		old.lines, old.flushed = nil, nil
		clear(lines)
	} else {
		lines = make([]uint64, n)
	}
	return &Cache{
		cfg:        cfg,
		lines:      lines,
		flushed:    flushed,
		setMask:    uint64(cfg.Sets() - 1),
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift:   uint(bits.Len64(uint64(cfg.Sets() - 1))),
		ways:       cfg.Ways,
		activeWays: cfg.Ways,
		writeback:  cfg.WriteBack,
		random:     cfg.Replacement == Random,
		rng:        0x243F6A8885A308D3, // fixed seed: deterministic runs
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents,
// mirroring how PAPI counters are reset between measurement intervals
// while the caches stay warm.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// ActiveWays reports how many ways are currently powered.
func (c *Cache) ActiveWays() int { return c.activeWays }

// indexOf splits an address into set index and tag.
func (c *Cache) indexOf(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.lineShift
	return blk & c.setMask, blk >> c.tagShift
}

// LineAddr reports the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Eviction flags reported by AccessPacked.
const (
	// EvictedFlag marks a valid line (clean or dirty) replaced by the
	// fill; its address is the second return value.
	EvictedFlag = 1 << 0
	// WritebackFlag marks the evicted line dirty: the caller owes a
	// write-back of the same address to the next level.
	WritebackFlag = 1 << 1
)

// Access performs one read (write=false) or write (write=true) of the
// line containing addr, updating LRU state and statistics. On a miss
// the line is filled (write-allocate) unless the cache is configured
// write-through, in which case write misses do not allocate.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	hit, ev, flags := c.AccessPacked(addr, write)
	res := AccessResult{Hit: hit}
	if flags&EvictedFlag != 0 {
		res.EvictedAddr, res.EvictedValid = ev, true
		if flags&WritebackFlag != 0 {
			res.WritebackAddr, res.WritebackValid = ev, true
		}
	}
	return res
}

// AccessPacked is Access with the outcome packed into scalar returns
// (hit, evicted-line address, EvictedFlag|WritebackFlag bits). The
// hierarchy scans three levels per simulated memory op, and returning
// a 40-byte AccessResult by value at each level was a measurable slice
// of the op budget; three scalars travel back in registers. The MRU
// filter and the flat scan produce statistics and LRU state identical
// to a plain set scan; only the work to get there differs.
func (c *Cache) AccessPacked(addr uint64, write bool) (hit bool, evictedAddr uint64, evFlags uint32) {
	c.stats.Accesses++
	c.useClock++
	blk := addr >> c.lineShift
	tagv := (blk>>c.tagShift)<<1 | 1
	// touch is the stamp of a line used now; one already dirty stays so.
	touch := lru.Stamp(c.useClock)
	if write && c.writeback {
		touch |= lru.Dirty
	}

	// MRU filter: a repeated-line access skips the set scan.
	if blk == c.mruBlk && c.lines[c.mruIdx] == tagv {
		c.stats.Hits++
		stamp := &c.lines[c.mruIdx+c.ways]
		*stamp = touch | *stamp&lru.Dirty
		return true, 0, 0
	}

	setIdx := blk & c.setMask
	base := int(setIdx) * 2 * c.ways
	tags := c.lines[base : base+c.activeWays]
	for i, t := range tags {
		if t == tagv {
			c.stats.Hits++
			stamp := &c.lines[base+c.ways+i]
			*stamp = touch | *stamp&lru.Dirty
			c.mruBlk, c.mruIdx = blk, base+i
			return true, 0, 0
		}
	}

	c.stats.Misses++
	if !write {
		c.stats.ReadMisses++
	}
	if write && !c.writeback {
		// Write-through/no-allocate: the write goes straight down.
		return false, 0, 0
	}

	// Fill: the first invalid way, else the policy's victim.
	stamps := c.lines[base+c.ways : base+c.ways+c.activeWays]
	victim, stamp := lru.Split(lru.Oldest(stamps))
	valid := stamp != 0 // a line is being replaced
	if valid && c.random {
		// No invalid way, so Random draws its own victim.
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		victim = int(c.rng % uint64(len(stamps)))
		stamp = stamps[victim]
	}
	if valid {
		evictedAddr = c.reconstruct(setIdx, tags[victim]>>1)
		evFlags = EvictedFlag
		if stamp&lru.Dirty != 0 {
			c.stats.Writebacks++
			evFlags |= WritebackFlag
		}
	}
	c.stats.Fills++
	tags[victim], stamps[victim] = tagv, touch
	c.mruBlk, c.mruIdx = blk, base+victim
	return false, evictedAddr, evFlags
}

// find returns the index into lines of the tag word of the line
// holding addr, searching the first n ways of its set, or -1.
func (c *Cache) find(addr uint64, n int) int {
	blk := addr >> c.lineShift
	tagv := (blk>>c.tagShift)<<1 | 1
	base := int(blk&c.setMask) * 2 * c.ways
	for i, t := range c.lines[base : base+n] {
		if t == tagv {
			return base + i
		}
	}
	return -1
}

// Update marks the line containing addr dirty if it is resident,
// reporting whether it was. The hierarchy uses it for write-back
// traffic from an inner level: an inclusive outer level normally holds
// the line, and when it does not the write-back is simply forwarded
// downward rather than allocating here.
func (c *Cache) Update(addr uint64) bool {
	i := c.find(addr, c.activeWays)
	if i < 0 {
		return false
	}
	c.useClock++
	// Nothing to keep of the old stamp: a write-through cache holds no
	// dirty line.
	stamp := lru.Stamp(c.useClock)
	if c.writeback {
		stamp |= lru.Dirty
	}
	c.lines[i+c.ways] = stamp
	return true
}

// Contains reports whether the line holding addr is resident. It does
// not perturb LRU state or statistics; it exists for tests and for the
// hierarchy's inclusion checks.
func (c *Cache) Contains(addr uint64) bool {
	return c.find(addr, c.activeWays) >= 0
}

// reconstruct rebuilds a line-aligned address from set index and tag.
func (c *Cache) reconstruct(setIdx, tag uint64) uint64 {
	return (tag<<c.tagShift | setIdx) << c.lineShift
}

// drop invalidates ways from..to-1 of every set, leaving the addresses
// of the dirty lines among them in c.flushed, and reports how many
// lines it dropped.
func (c *Cache) drop(from, to int) (dropped uint64) {
	c.flushed = c.flushed[:0]
	for setIdx, base := uint64(0), 0; base < len(c.lines); setIdx, base = setIdx+1, base+2*c.ways {
		for i := base + from; i < base+to; i++ {
			if c.lines[i] == 0 {
				continue
			}
			dropped++
			if c.lines[i+c.ways]&lru.Dirty != 0 {
				c.flushed = append(c.flushed, c.reconstruct(setIdx, c.lines[i]>>1))
			}
			c.lines[i], c.lines[i+c.ways] = 0, 0
		}
	}
	return dropped
}

// SetActiveWays gates the cache down (or back up) to n powered ways,
// clamped to [1, cfg.Ways]. Lines resident in ways being powered off
// are flushed; the addresses of dirty ones are returned so the caller
// can charge write-back traffic. Re-enabling ways returns nil: the
// re-powered ways come up invalid. The returned slice is this cache's
// scratch, valid until the next SetActiveWays or Flush on this cache.
func (c *Cache) SetActiveWays(n int) []uint64 {
	if n < 1 {
		n = 1
	}
	if n > c.cfg.Ways {
		n = c.cfg.Ways
	}
	if n >= c.activeWays {
		c.activeWays = n
		return nil
	}
	c.stats.GateFlush += c.drop(n, c.activeWays)
	c.activeWays = n
	return c.flushed
}

// Flush invalidates every line, returning the addresses of dirty ones
// in the same scratch, valid until the next SetActiveWays or Flush on
// this cache.
func (c *Cache) Flush() []uint64 {
	c.drop(0, c.ways)
	return c.flushed
}

// Invalidate drops the line containing addr if resident, reporting
// whether it was dirty. The hierarchy uses it to maintain inclusion
// when an outer level evicts.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool) {
	i := c.find(addr, c.ways) // search gated ways too: they are invalid anyway
	if i < 0 {
		return false
	}
	wasDirty = c.lines[i+c.ways]&lru.Dirty != 0
	c.lines[i], c.lines[i+c.ways] = 0, 0
	return wasDirty
}

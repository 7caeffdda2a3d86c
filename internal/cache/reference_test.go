package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nodecap/internal/lru"
)

// refCache is the cache's semantics written the slow way — one struct
// per line, an explicit timestamp, a linear search for everything — so
// the packed implementation can be checked against it op for op. It
// is deliberately free of every shortcut the real cache takes (no MRU
// filter, no packed keys, no hoisted fields).
type refCache struct {
	cfg    Config
	sets   [][]refLine
	active int
	clock  uint64
	rng    uint64
	stats  Stats
}

type refLine struct {
	valid, dirty bool
	tag          uint64
	stamp        uint64 // clock of the last touch
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{cfg: cfg, active: cfg.Ways, rng: 0x243F6A8885A308D3}
	r.sets = make([][]refLine, cfg.Sets())
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) split(addr uint64) (set, tag uint64) {
	blk := addr / uint64(r.cfg.LineBytes)
	return blk % uint64(r.cfg.Sets()), blk / uint64(r.cfg.Sets())
}

func (r *refCache) addrOf(set, tag uint64) uint64 {
	return (tag*uint64(r.cfg.Sets()) + set) * uint64(r.cfg.LineBytes)
}

// find searches the first n ways of addr's set.
func (r *refCache) find(addr uint64, n int) *refLine {
	set, tag := r.split(addr)
	for w := 0; w < n; w++ {
		if l := &r.sets[set][w]; l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

func (r *refCache) access(addr uint64, write bool) (hit bool, evicted uint64, flags uint32) {
	r.stats.Accesses++
	r.clock++
	if l := r.find(addr, r.active); l != nil {
		r.stats.Hits++
		l.stamp = r.clock
		if write && r.cfg.WriteBack {
			l.dirty = true
		}
		return true, 0, 0
	}
	r.stats.Misses++
	if !write {
		r.stats.ReadMisses++
	}
	if write && !r.cfg.WriteBack {
		return false, 0, 0
	}
	set, tag := r.split(addr)
	ways := r.sets[set][:r.active]
	victim := -1
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		if r.cfg.Replacement == Random {
			r.rng ^= r.rng << 13
			r.rng ^= r.rng >> 7
			r.rng ^= r.rng << 17
			victim = int(r.rng % uint64(len(ways)))
		} else {
			victim = 0
			for w := range ways {
				if ways[w].stamp < ways[victim].stamp {
					victim = w
				}
			}
		}
	}
	l := &ways[victim]
	if l.valid {
		evicted, flags = r.addrOf(set, l.tag), EvictedFlag
		if l.dirty {
			r.stats.Writebacks++
			flags |= WritebackFlag
		}
	}
	r.stats.Fills++
	*l = refLine{valid: true, dirty: write && r.cfg.WriteBack, tag: tag, stamp: r.clock}
	return false, evicted, flags
}

func (r *refCache) update(addr uint64) bool {
	l := r.find(addr, r.active)
	if l == nil {
		return false
	}
	r.clock++
	l.stamp = r.clock
	if r.cfg.WriteBack {
		l.dirty = true
	}
	return true
}

func (r *refCache) contains(addr uint64) bool { return r.find(addr, r.active) != nil }

func (r *refCache) invalidate(addr uint64) bool {
	l := r.find(addr, r.cfg.Ways)
	if l == nil {
		return false
	}
	wasDirty := l.dirty
	*l = refLine{}
	return wasDirty
}

func (r *refCache) setActiveWays(n int) []uint64 {
	if n < 1 {
		n = 1
	}
	if n > r.cfg.Ways {
		n = r.cfg.Ways
	}
	var dirty []uint64
	for set := range r.sets {
		for w := n; w < r.active; w++ {
			l := &r.sets[set][w]
			if !l.valid {
				continue
			}
			r.stats.GateFlush++
			if l.dirty {
				dirty = append(dirty, r.addrOf(uint64(set), l.tag))
			}
			*l = refLine{}
		}
	}
	r.active = n
	return dirty
}

func (r *refCache) flush() []uint64 {
	var dirty []uint64
	for set := range r.sets {
		for w := range r.sets[set] {
			l := &r.sets[set][w]
			if l.valid && l.dirty {
				dirty = append(dirty, r.addrOf(uint64(set), l.tag))
			}
			*l = refLine{}
		}
	}
	return dirty
}

// hex prints an address in failure messages.
type hex uint64

func (h hex) String() string { return fmt.Sprintf("%#x", uint64(h)) }

// againstReference decodes data into a geometry and an op stream and
// drives the real cache and the reference in lockstep, comparing every
// return value and the full Stats after every op. It returns the first
// disagreement. The address pool is a little over twice the set's
// associativity per set, so hits, fills, evictions and re-fills of
// invalidated ways all occur; every eighth address has bits 40..50 of
// its tag set so wide tags are exercised too. The real cache is built
// over old (nil: fresh) and returned as the stream left it, so that a
// second stream can run on a cache recycled from the first's.
func againstReference(data []byte, old *Cache) (*Cache, error) {
	if len(data) < 4 {
		return nil, nil
	}
	sets := 1 << (data[0] % 4)  // 1, 2, 4, 8
	ways := 1 + int(data[1])%20 // 1..20
	if data[1] == 255 {
		ways = lru.MaxWays // the widest set a key can index
	}
	const line = 64
	cfg := Config{Name: "D", SizeBytes: sets * ways * line, LineBytes: line, Ways: ways,
		WriteBack: data[2]&1 != 0}
	if data[2]&2 != 0 {
		cfg.Replacement = Random
	}
	c, r := Recycle(cfg, old), newRefCache(cfg)
	tags := uint64(2*ways + 3)

	ops := data[3:]
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], uint64(ops[i+1]), uint64(ops[i+2])
		tag := (a | b<<8) % tags
		if b&7 == 7 {
			tag |= 0x7FF << 40
		}
		addr := ((tag*uint64(sets) + a%uint64(sets)) * line) | (b % line)
		var got, want any
		var what string // the op's name; arg is its argument
		var arg any = hex(addr)
		switch op % 16 {
		default: // 0..8: the access path dominates
			write := op&16 != 0
			what, arg = "AccessPacked", []any{hex(addr), write}
			h1, e1, f1 := c.AccessPacked(addr, write)
			h2, e2, f2 := r.access(addr, write)
			got, want = []any{h1, e1, f1}, []any{h2, e2, f2}
		case 9, 10:
			what = "Update"
			got, want = c.Update(addr), r.update(addr)
		case 11, 12:
			what = "Invalidate"
			got, want = c.Invalidate(addr), r.invalidate(addr)
		case 13:
			what = "Contains"
			got, want = c.Contains(addr), r.contains(addr)
		case 14:
			n := int(a%32) - 4 // below 1 and above Ways: both clamp
			what, arg = "SetActiveWays", n
			got, want = append([]uint64{}, c.SetActiveWays(n)...), append([]uint64{}, r.setActiveWays(n)...)
		case 15:
			if a%4 != 0 { // keep whole-cache flushes rare
				continue
			}
			what, arg = "Flush", ""
			got, want = append([]uint64{}, c.Flush()...), append([]uint64{}, r.flush()...)
		}
		if !reflect.DeepEqual(got, want) {
			return nil, fmt.Errorf("%+v op %d %s(%v) = %v, reference %v", cfg, i/3, what, arg, got, want)
		}
		if c.Stats() != r.stats {
			return nil, fmt.Errorf("%+v op %d %s(%v): stats %+v, reference %+v", cfg, i/3, what, arg, c.Stats(), r.stats)
		}
		if c.ActiveWays() != r.active {
			return nil, fmt.Errorf("%+v op %d %s(%v): active ways %d, reference %d", cfg, i/3, what, arg, c.ActiveWays(), r.active)
		}
	}
	// Residency, line by line, over the whole pool.
	for set := uint64(0); set < uint64(sets); set++ {
		for tag := uint64(0); tag < tags; tag++ {
			for _, t := range []uint64{tag, tag | 0x7FF<<40} {
				addr := (t*uint64(sets) + set) * line
				if c.Contains(addr) != r.contains(addr) {
					return nil, fmt.Errorf("%+v: final Contains(%#x) = %v, reference %v", cfg, addr, c.Contains(addr), r.contains(addr))
				}
			}
		}
	}
	return c, nil
}

// TestAgainstReference runs seeded random op mixes — reads, writes,
// Update, Invalidate, Contains, way gating down/up/clamped, Flush —
// over 1–8 sets x 1–20 (and lru.MaxWays) ways, LRU and Random, write-back
// and write-through, against the naive reference model; then a second
// mix over the same geometry on a cache recycled from the one the first
// left dirty, gated and mid-clock, which must behave as a new one.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 400; round++ {
		data := make([]byte, 3+3*1500)
		rng.Read(data)
		if round%50 == 49 {
			data[1] = 255
		}
		c, err := againstReference(data, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rng.Read(data[3:])
		if _, err := againstReference(data, c); err != nil {
			t.Fatalf("round %d, recycled: %v", round, err)
		}
		if c.lines != nil {
			t.Fatalf("round %d: the recycled cache kept its slab", round)
		}
	}
}

// FuzzCacheAgainstReference is the same driver under the fuzzer: each
// input fresh, then once more over the cache that run left behind.
func FuzzCacheAgainstReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data := make([]byte, 3+3*200)
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{3, 19, 1, 0, 1, 2, 14, 6, 0, 16, 1, 2, 14, 31, 0, 15, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := againstReference(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := againstReference(data, c); err != nil {
			t.Fatalf("recycled: %v", err)
		}
	})
}

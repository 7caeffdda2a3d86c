// Package lru is the replacement state the cache and TLB models share:
// one word per way from which a single branch-free pass picks the
// victim of a fill.
//
// Each way of a set has a stamp, clock<<1|dirty: the clock is the
// owner's access counter at the way's last touch (bumped before every
// touch, so valid ways hold distinct clocks >= 1) and dirty is the
// owner's to use (the TLB leaves it 0). An invalid way's stamp is 0, so
// zeroed memory is an empty set. A way's key is its stamp with its own
// index appended, stamp<<WayBits|way. Every valid key exceeds every
// invalid one, invalid keys order by way, and valid keys order by
// clock; the minimum key over a set's active ways is therefore the
// lowest-numbered invalid way if there is one and the least recently
// used way otherwise — exactly "first invalid way, else true LRU" —
// and its low WayBits bits name that way. The clock has 57 bits: at a
// billion accesses a second it wraps after four years.
package lru

// WayBits is the width of a key's way field; MaxWays is the widest set
// a key can index.
const (
	WayBits = 6
	MaxWays = 1 << WayBits
)

// Dirty is the stamp bit the owner may use to mark modified data.
const Dirty = 1

// Stamp is the stamp of a way touched at clock, clean.
func Stamp(clock uint64) uint64 { return clock << 1 }

// Oldest returns the minimum key over stamps, which holds the stamps
// of one set's active ways in way order. Split reads it.
//
// It is kept out of line on purpose: inlined next to code that indexes
// by the result, the compiler turns the loop's conditional move back
// into a branch (it will not feed a CMOV into a load address), and
// that branch is taken on an unpredictable compare.
//
//go:noinline
func Oldest(stamps []uint64) uint64 {
	oldest := ^uint64(0)
	for way, s := range stamps {
		if k := s<<WayBits | uint64(way); k < oldest {
			oldest = k
		}
	}
	return oldest
}

// Split takes a key apart: the way it names and that way's stamp,
// which is 0 if the way holds nothing.
func Split(key uint64) (way int, stamp uint64) {
	return int(key & (MaxWays - 1)), key >> WayBits
}

package tlb

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTLB is the TLB's semantics written the slow way: one struct per
// entry, an explicit timestamp, linear searches, no MRU filter.
type refTLB struct {
	cfg    Config
	sets   [][]refEntry
	active int
	clock  uint64
	stats  Stats
}

type refEntry struct {
	valid bool
	tag   uint64
	stamp uint64
}

func newRefTLB(cfg Config) *refTLB {
	r := &refTLB{cfg: cfg, active: cfg.Ways, sets: make([][]refEntry, cfg.Sets())}
	for i := range r.sets {
		r.sets[i] = make([]refEntry, cfg.Ways)
	}
	return r
}

func (r *refTLB) lookup(addr uint64) bool {
	r.stats.Accesses++
	r.clock++
	vpn := addr / uint64(r.cfg.PageBytes)
	ways := r.sets[vpn%uint64(r.cfg.Sets())][:r.active]
	tag := vpn / uint64(r.cfg.Sets())
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			r.stats.Hits++
			ways[w].stamp = r.clock
			return true
		}
	}
	r.stats.Misses++
	victim := -1
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		for w := range ways {
			if ways[w].stamp < ways[victim].stamp {
				victim = w
			}
		}
	}
	ways[victim] = refEntry{valid: true, tag: tag, stamp: r.clock}
	return false
}

func (r *refTLB) setActiveWays(n int) {
	if n < 1 {
		n = 1
	}
	if n > r.cfg.Ways {
		n = r.cfg.Ways
	}
	for set := range r.sets {
		for w := n; w < r.active; w++ {
			if r.sets[set][w].valid {
				r.stats.GateDrop++
				r.sets[set][w] = refEntry{}
			}
		}
	}
	r.active = n
}

func (r *refTLB) flush() {
	for set := range r.sets {
		for w := range r.sets[set] {
			r.sets[set][w] = refEntry{}
		}
	}
}

// TestAgainstReference drives the TLB and the naive model in lockstep
// through seeded random mixes of lookups, gating (down, up, clamped)
// and flushes over 1–8 sets x 1–12 ways, comparing every return value
// and the full Stats after every op.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 300; round++ {
		sets, ways := 1<<rng.Intn(4), 1+rng.Intn(12)
		cfg := Config{Name: "D", Entries: sets * ways, Ways: ways, PageBytes: 4096}
		tl, r := New(cfg), newRefTLB(cfg)
		pages := uint64(sets * (2*ways + 3))
		for op := 0; op < 2000; op++ {
			var what string
			switch k := rng.Intn(64); {
			case k == 0:
				what = "Flush()"
				tl.Flush()
				r.flush()
			case k <= 3:
				n := rng.Intn(ways+6) - 2
				what = fmt.Sprintf("SetActiveWays(%d)", n)
				tl.SetActiveWays(n)
				r.setActiveWays(n)
			default:
				vpn := uint64(rng.Int63n(int64(pages)))
				if k&7 == 7 {
					vpn |= 0x7FF << 38 // wide tags
				}
				addr := vpn*4096 + uint64(rng.Intn(4096))
				what = fmt.Sprintf("Lookup(%#x)", addr)
				if got, want := tl.Lookup(addr), r.lookup(addr); got != want {
					t.Fatalf("%+v op %d %s = %v, reference %v", cfg, op, what, got, want)
				}
			}
			if tl.Stats() != r.stats {
				t.Fatalf("%+v op %d %s: stats %+v, reference %+v", cfg, op, what, tl.Stats(), r.stats)
			}
			if tl.ActiveWays() != r.active {
				t.Fatalf("%+v op %d %s: active ways %d, reference %d", cfg, op, what, tl.ActiveWays(), r.active)
			}
		}
	}
}

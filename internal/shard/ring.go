// Package shard implements the two-level sharded control plane: leaf
// dcm.Managers own node shards assigned by consistent hashing, and an
// aggregator divides the datacenter power budget over the leaves,
// rebalancing from leaf demand summaries and migrating node ownership
// with fenced handoff when leaves join, leave, or crash.
package shard

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node granularity per leaf. 64 keeps the
// assignment balanced within a few percent of even while the ring
// rebuild on a membership change stays trivial.
const DefaultVnodes = 64

// ringLeafSlots sizes the arc table: vnodes × ringLeafSlots equal
// arcs, so each leaf still owns ≈vnodes arcs at the design-max leaf
// count.
const ringLeafSlots = 64

// splitmix64 is the finalizer from Vigna's SplitMix64: a cheap,
// stateless 64-bit mixer whose output streams are deterministic per
// input — the same property the chaos harness relies on for
// reproducible runs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv64a hashes a string (FNV-1a), feeding leaf names into the mixer.
func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Ring is a consistent-hash ring mapping node IDs to leaf names. The
// hash space is divided into a fixed number of equal arcs (virtual
// nodes); each arc is claimed by the leaf with the highest seeded
// (arc, leaf) weight — highest-random-weight assignment per arc. The
// fixed arc grid keeps shares within a few percent of even (a raw
// vnode scatter wanders ±30% at this granularity), while HRW keeps the
// classic consistent-hashing contract: adding a leaf moves only the
// arcs the newcomer wins (≈1/(n+1) of them, all TO the newcomer) and
// removing one moves only the arcs it held.
//
// The whole assignment is a pure function of (seed, membership set,
// node ID): join order cannot influence ownership, and two aggregators
// with the same seed and membership always agree.
type Ring struct {
	seed   uint64
	vnodes int
	leaves []string // sorted
	slots  []int32  // arc -> index into leaves, -1 when empty
}

// NewRing builds an empty ring. vnodes <= 0 selects DefaultVnodes.
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{seed: seed, vnodes: vnodes, slots: make([]int32, vnodes*ringLeafSlots)}
}

// SetLeaves replaces the membership and reassigns every arc.
func (r *Ring) SetLeaves(leaves []string) {
	r.leaves = append(r.leaves[:0], leaves...)
	sort.Strings(r.leaves)
	hashes := make([]uint64, len(r.leaves))
	for i, leaf := range r.leaves {
		hashes[i] = splitmix64(r.seed ^ splitmix64(fnv64a(leaf)))
	}
	for s := range r.slots {
		sh := splitmix64(r.seed ^ splitmix64(uint64(s)+0x51C))
		best, bestW := int32(-1), uint64(0)
		for li, lh := range hashes {
			// Ties cannot survive the strict >: equal weights keep the
			// lexicographically smaller leaf (smaller sorted index), a
			// membership-pure tie-break.
			if w := splitmix64(sh ^ lh); best < 0 || w > bestW {
				best, bestW = int32(li), w
			}
		}
		r.slots[s] = best
	}
}

// Leaves reports the current membership, sorted.
func (r *Ring) Leaves() []string {
	return append([]string(nil), r.leaves...)
}

// Owner maps one node ID to its owning leaf via the node's arc.
func (r *Ring) Owner(id uint32) (string, bool) {
	if len(r.leaves) == 0 {
		return "", false
	}
	h := splitmix64(r.seed ^ splitmix64(uint64(id)|1<<40))
	li := r.slots[h%uint64(len(r.slots))]
	if li < 0 {
		return "", false
	}
	return r.leaves[li], true
}

// Validate sanity-checks construction parameters.
func (r *Ring) Validate() error {
	if r.vnodes <= 0 || len(r.slots) == 0 {
		return fmt.Errorf("shard: ring vnodes %d", r.vnodes)
	}
	return nil
}

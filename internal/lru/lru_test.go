package lru

import (
	"math/rand"
	"testing"
)

// TestOldestIsFirstInvalidElseLRU checks the package's one claim
// against the rule spelled out the slow way, over random sets of every
// width: some ways invalid, the rest stamped with distinct clocks and
// random dirty bits.
func TestOldestIsFirstInvalidElseLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20000; round++ {
		n := 1 + rng.Intn(MaxWays)
		stamps := make([]uint64, n)
		for way, clock := range rng.Perm(n) {
			if rng.Intn(4) != 0 {
				stamps[way] = Stamp(uint64(clock)+1) | uint64(rng.Intn(2))*Dirty
			}
		}
		want := -1
		for way, s := range stamps {
			if s == 0 {
				want = way
				break
			}
		}
		wantValid := want < 0
		if wantValid {
			want = 0
			for way, s := range stamps {
				if s>>1 < stamps[want]>>1 {
					want = way
				}
			}
		}
		way, stamp := Split(Oldest(stamps))
		if way != want || stamp != stamps[want] || (stamp != 0) != wantValid {
			t.Fatalf("stamps %v: victim way %d stamp %#x, want way %d stamp %#x (valid %v)",
				stamps, way, stamp, want, stamps[want], wantValid)
		}
	}
}

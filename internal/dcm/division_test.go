package dcm

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/waterfill_golden.txt from this run")

// waterfillCorpus is a seeded set of waterfill inputs: unique names in
// shuffled order, weights of 1 (and unset), DefaultHighTierWeight and
// random values, zero wants, wants above the platform maximum,
// stale-pinned nodes (want = min = max), and budgets from below Σmin to
// above Σmax.
func waterfillCorpus() (budgets []float64, groups [][]demand) {
	rng := rand.New(rand.NewSource(36))
	for range 500 {
		n := 1 + rng.Intn(12)
		perm := rng.Perm(n)
		ds := make([]demand, n)
		var minSum, maxSum float64
		for i := range ds {
			lo := 40 + rng.Float64()*120
			d := demand{
				name: fmt.Sprintf("node-%02d", perm[i]),
				min:  lo, max: lo + rng.Float64()*200,
				want: rng.Float64() * 1.05 * 300,
			}
			switch rng.Intn(5) {
			case 0:
				d.want = 0
			case 1:
				d.weight = 1
			case 2:
				d.weight = DefaultHighTierWeight
			case 3:
				d.weight = 0.1 + rng.Float64()*5
			}
			if rng.Intn(8) == 0 {
				d.want, d.max = d.min, d.min
			}
			ds[i] = d
			minSum += d.min
			maxSum += d.max
		}
		budgets = append(budgets, minSum*0.9+rng.Float64()*(maxSum*1.1-minSum*0.9))
		groups = append(groups, ds)
	}
	return budgets, groups
}

// TestWaterfillGolden replays the corpus against allocations recorded
// as exact float64 bits, one case a line in name order ("-" where the
// budget was infeasible), so a rewrite of the division must reproduce
// every grant bit for bit.
func TestWaterfillGolden(t *testing.T) {
	budgets, groups := waterfillCorpus()
	var got strings.Builder
	for i, ds := range groups {
		allocs, err := waterfill(budgets[i], ds)
		if err != nil {
			got.WriteString("-\n")
			continue
		}
		bits := make([]string, len(allocs))
		for j, a := range allocs {
			bits[j] = strconv.FormatUint(math.Float64bits(a.CapWatts), 16)
		}
		got.WriteString(strings.Join(bits, " ") + "\n")
	}
	checkGolden(t, filepath.Join("testdata", "waterfill_golden.txt"), got.String())
}

// checkGolden compares got with the file at path line by line, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(b), "\n"), strings.Split(got, "\n")
	if len(want) != len(have) {
		t.Fatalf("%s holds %d lines, the corpus %d", path, len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("case %d: got %s, want %s", i, have[i], want[i])
		}
	}
}

// TestDivideProperties: over the corpus, a feasible division hands out
// exactly min(budget, Σmax), keeps every grant in [min, max] and is
// monotone in the budget; an infeasible one yields exactly the
// minimums; and waterfill does not depend on input order.
func TestDivideProperties(t *testing.T) {
	budgets, groups := waterfillCorpus()
	rng := rand.New(rand.NewSource(1))
	for i, ds := range groups {
		claims := make([]Claim, len(ds))
		var minSum, maxSum float64
		for j, d := range ds {
			claims[j] = Claim{Min: d.min, Max: d.max, Want: d.want, Weight: cmp.Or(d.weight, 1)}
			minSum += d.min
			maxSum += d.max
		}
		grants, feasible := Divide(budgets[i], claims)
		if !feasible {
			for j, g := range grants {
				if g != claims[j].Min {
					t.Fatalf("case %d: infeasible grant %d is %v, want the minimum %v", i, j, g, claims[j].Min)
				}
			}
			if budgets[i] >= minSum {
				t.Fatalf("case %d: budget %v covers Σmin %v but was called infeasible", i, budgets[i], minSum)
			}
			continue
		}
		tol := 1e-9 * maxSum
		var sum float64
		for j, g := range grants {
			if g < claims[j].Min || g > claims[j].Max+tol {
				t.Fatalf("case %d: grant %d is %v, outside [%v, %v]", i, j, g, claims[j].Min, claims[j].Max)
			}
			sum += g
		}
		if want := min(budgets[i], maxSum); math.Abs(sum-want) > tol {
			t.Fatalf("case %d: grants sum to %v, want min(budget, Σmax) = %v", i, sum, want)
		}
		more, _ := Divide(budgets[i]*(1+rng.Float64()*0.2), claims)
		for j := range grants {
			if more[j] < grants[j]-tol {
				t.Fatalf("case %d: grant %d fell from %v to %v as the budget grew", i, j, grants[j], more[j])
			}
		}
		allocs, _ := waterfill(budgets[i], ds)
		shuffled := append([]demand(nil), ds...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if again, _ := waterfill(budgets[i], shuffled); fmt.Sprint(again) != fmt.Sprint(allocs) {
			t.Fatalf("case %d: input order changed the division:\n%v\n%v", i, allocs, again)
		}
	}
}

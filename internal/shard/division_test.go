package shard

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/divide_golden.txt from this run")

// divideCorpus is a seeded set of leaf-summary divisions: empty leaves
// (all zeros), wants below the minimum and above the maximum, and
// budgets from below Σmin to above Σmax.
func divideCorpus() (budgets []float64, groups [][]demandSummary) {
	rng := rand.New(rand.NewSource(36))
	for range 500 {
		cs := make([]demandSummary, 1+rng.Intn(10))
		var minSum, maxSum float64
		for i := range cs {
			if rng.Intn(10) == 0 {
				continue // an empty leaf
			}
			lo := rng.Float64() * 3000
			hi := lo + rng.Float64()*3000
			cs[i] = demandSummary{min: lo, want: lo*0.8 + rng.Float64()*(hi*1.3-lo*0.8), max: hi}
			minSum += lo
			maxSum += hi
		}
		budgets = append(budgets, minSum*0.9+rng.Float64()*(maxSum*1.1-minSum*0.9))
		groups = append(groups, cs)
	}
	return budgets, groups
}

// TestDivideGolden replays the corpus against grants recorded as exact
// float64 bits, one case a line, so a rewrite of the division must
// reproduce every grant bit for bit.
func TestDivideGolden(t *testing.T) {
	budgets, groups := divideCorpus()
	var got strings.Builder
	for i, cs := range groups {
		grants, _ := divide(budgets[i], cs)
		bits := make([]string, len(grants))
		for j, g := range grants {
			bits[j] = strconv.FormatUint(math.Float64bits(g), 16)
		}
		got.WriteString(strings.Join(bits, " ") + "\n")
	}
	path := filepath.Join("testdata", "divide_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(b), "\n"), strings.Split(got.String(), "\n")
	if len(want) != len(have) {
		t.Fatalf("%s holds %d lines, the corpus %d", path, len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("case %d (budget %v): got %s, want %s", i, budgets[i], have[i], want[i])
		}
	}
}

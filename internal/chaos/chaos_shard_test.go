package chaos

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestShardHandoffScenarioHolds: leaves isolated and rejoined under
// load — every node's ownership migrates with fenced handoff, the
// isolated leaf's stale-budget pushes are refused by the plant-side
// fence, and the tree-wide budget stays conserved at every tick.
func TestShardHandoffScenarioHolds(t *testing.T) {
	v := mustRun(t, "shard-handoff", 7, 1200, 12)
	assertPass(t, v)
	if v.Shards != 4 {
		t.Errorf("expected 4 shards for 12 nodes, got %d", v.Shards)
	}
	if v.Handoffs == 0 {
		t.Error("scenario migrated no node ownership")
	}
	if v.Checks[InvTreeBudget] != v.Ticks {
		t.Errorf("tree_budget_conserved asserted %d times over %d ticks", v.Checks[InvTreeBudget], v.Ticks)
	}
	if v.Checks[InvSingleOwner] == 0 {
		t.Error("single_owner never audited an admitted push")
	}
	if v.FencedPushes == 0 {
		t.Error("no isolated-leaf push was ever fenced — the duel never happened")
	}
	if v.Checks[InvCapRespected] == 0 {
		t.Error("cap_respected never asserted")
	}
}

// TestLeafCrashScenarioHolds: leaf crash-restart cycles plus
// aggregator restarts from the journaled shard map.
func TestLeafCrashScenarioHolds(t *testing.T) {
	v := mustRun(t, "leaf-crash", 3, 1200, 12)
	assertPass(t, v)
	if v.LeafCrashes == 0 || v.LeafRestarts == 0 {
		t.Fatalf("scenario injected no leaf crash/restart pairs: %+v", v)
	}
	if v.AggRestarts == 0 {
		t.Error("scenario never restarted the aggregator")
	}
	if v.Handoffs == 0 {
		t.Error("no ownership ever migrated")
	}
}

// TestShardVerdictDeterministicAcrossParallelism: the sharded verdict
// is bit-identical across runs and across engine parallelism 1, 4, and
// NumCPU — parallelism is a throughput knob, not scenario identity.
func TestShardVerdictDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallel int) string {
		s, err := Build("shard-handoff", 7, 900, 12)
		if err != nil {
			t.Fatal(err)
		}
		s.Parallelism = parallel
		s.StateDir = t.TempDir()
		v, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	base := run(1)
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		if got := run(p); got != base {
			t.Fatalf("verdict diverges at parallelism %d:\n%s\n%s", p, base, got)
		}
	}
}

// TestBrokenHandoffCaught: with the fencing-epoch bump skipped on
// migration, a deposed leaf's pushes are admitted next to the new
// owner's — single_owner MUST flag the dual writers.
func TestBrokenHandoffCaught(t *testing.T) {
	s, err := Build("shard-handoff", 7, 1200, 12)
	if err != nil {
		t.Fatal(err)
	}
	s.BreakHandoff = true
	s.StateDir = t.TempDir()
	v, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("broken handoff not caught by the invariant checker")
	}
	found := false
	for _, viol := range v.Violations {
		if contains(viol.Msg, InvSingleOwner) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("violations do not implicate %s: %v", InvSingleOwner, v.Violations)
	}
}

// TestBrokenAggregatorCaught: with the cascade over-allocating 1.5×
// per leaf, the leaf-pushed cap sum blows past the datacenter budget —
// tree_budget_conserved MUST flag it.
func TestBrokenAggregatorCaught(t *testing.T) {
	s, err := Build("shard-handoff", 7, 600, 12)
	if err != nil {
		t.Fatal(err)
	}
	s.BreakAggregator = true
	s.StateDir = t.TempDir()
	v, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("broken aggregator not caught by the invariant checker")
	}
	found := false
	for _, viol := range v.Violations {
		if contains(viol.Msg, InvTreeBudget) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("violations do not implicate %s: %v", InvTreeBudget, v.Violations)
	}
}

// TestShardScenarioValidation: sharded event kinds and modes are
// rejected outside sharded scenarios, and vice versa.
func TestShardScenarioValidation(t *testing.T) {
	if _, err := Run(Scenario{Name: "x", Ticks: 10, Nodes: 2, Events: []Event{{Tick: 1, Kind: EvLeafIsolate}}}); err == nil {
		t.Error("leaf event accepted without Shards")
	}
	if _, err := Run(Scenario{Name: "x", Ticks: 10, Nodes: 2, Shards: 2, Events: []Event{{Tick: 1, Kind: EvLeafCrash, Leaf: 5}}}); err == nil {
		t.Error("out-of-range leaf target accepted")
	}
	if _, err := Run(Scenario{Name: "x", Ticks: 10, Nodes: 2, Shards: 2, HA: true}); err == nil {
		t.Error("sharded+HA accepted")
	}
	if _, err := Run(Scenario{Name: "x", Ticks: 10, Nodes: 2, Shards: 2, Wire: true}); err == nil {
		t.Error("sharded+wire accepted")
	}
	if _, err := Run(Scenario{Name: "x", Ticks: 10, Nodes: 2, Shards: 2, Events: []Event{{Tick: 1, Kind: EvCrash}}}); err == nil {
		t.Error("solo crash event accepted in sharded scenario")
	}
	// Leaf names must sort in index order for the shard map's leaf check.
	if _, err := Run(Scenario{Name: "x", Ticks: 10, Nodes: 2, Shards: 100}); err == nil || !contains(err.Error(), "sort in index order") {
		t.Errorf("100 shards: err = %v, want dcmd's leaf bound", err)
	}
}

package chaos

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/verdict_*.json from this run")

// TestVerdictGolden compares whole verdict JSON — counters, check
// counts, violation messages and their trace windows — byte for byte
// against files recorded before the control law was folded into one
// kernel, at the seeds and sizes CI's chaos-smoke job runs. Every
// number in a verdict is downstream of the per-node control law, so
// any drift of the law (or of the engine's noise draw order, policy
// install or audit snapshots) fails here first. leaf_crash — the one
// scenario with aggregator restarts — was recorded before the restart
// procedure moved out of this harness into shard.Tree.Rebind, which
// dcmd runs too. The rest — every other built-in scenario and every
// sabotage self-test at the seed its TestBroken*Caught test uses — were
// recorded before the solo manager, the HA pair and the shard tree
// became one leaf-of-replicas model. Rendered as cmd/chaos prints it, so a golden can be
// diffed against a CLI run.
func TestVerdictGolden(t *testing.T) {
	var (
		floor       = func(s *Scenario) { s.BreakFailSafeFloor = true }
		fencing     = func(s *Scenario) { s.BreakFencing = true }
		replication = func(s *Scenario) { s.BreakReplication = true }
		breaker     = func(s *Scenario) { s.BreakBreaker = true }
		handoff     = func(s *Scenario) { s.BreakHandoff = true }
		aggregator  = func(s *Scenario) { s.BreakAggregator = true }
	)
	cases := []struct {
		file         string
		scenario     string
		seed         int64
		nodes, ticks int
		sabotage     func(*Scenario) // nil for an honest run
	}{
		{"mixed", "mixed", 7, 6, 1500, nil},
		{"sensor_storm", "sensor-storm", 3, 5, 1200, nil},
		{"sensor_storm_broken_floor", "sensor-storm", 3, 5, 1200, floor},
		{"shard_handoff", "shard-handoff", 7, 12, 1200, nil},
		{"failover_kill", "failover-kill", 1, 5, 1200, nil},
		{"latency_storm", "latency-storm", 6, 5, 1200, nil},
		{"leaf_crash", "leaf-crash", 3, 12, 1200, nil},
		{"partition", "partition", 1, 5, 1200, nil},
		{"crash_restart", "crash-restart", 2, 5, 1500, nil},
		{"churn", "churn", 4, 5, 1200, nil},
		{"flapper", "flapper", 7, 5, 1200, nil},
		{"slow_herd", "slow-herd", 8, 6, 1500, nil},
		{"fence_duel", "fence-duel", 1, 5, 1200, nil},
		{"replica_torn_tail", "replica-torn-tail", 1, 5, 1200, nil},
		{"fence_duel_broken_fencing", "fence-duel", 1, 5, 1200, fencing},
		{"failover_kill_broken_replication", "failover-kill", 1, 5, 1200, replication},
		{"latency_storm_broken_breaker", "latency-storm", 6, 5, 1200, breaker},
		{"shard_handoff_broken_handoff", "shard-handoff", 7, 12, 1200, handoff},
		{"shard_handoff_broken_aggregator", "shard-handoff", 7, 12, 600, aggregator},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			s, err := Build(c.scenario, c.seed, c.ticks, c.nodes)
			if err != nil {
				t.Fatal(err)
			}
			s.StateDir = t.TempDir()
			if c.sabotage != nil {
				c.sabotage(&s)
			}
			v, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			enc := json.NewEncoder(&got)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "verdict_"+c.file+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("verdict drifted from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
			}
		})
	}
}

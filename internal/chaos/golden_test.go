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
// dcmd runs too. Rendered as cmd/chaos prints it, so a golden can be
// diffed against a CLI run.
func TestVerdictGolden(t *testing.T) {
	cases := []struct {
		file         string
		scenario     string
		seed         int64
		nodes, ticks int
		breakFloor   bool
	}{
		{"mixed", "mixed", 7, 6, 1500, false},
		{"sensor_storm", "sensor-storm", 3, 5, 1200, false},
		{"sensor_storm_broken_floor", "sensor-storm", 3, 5, 1200, true},
		{"shard_handoff", "shard-handoff", 7, 12, 1200, false},
		{"failover_kill", "failover-kill", 1, 5, 1200, false},
		{"latency_storm", "latency-storm", 6, 5, 1200, false},
		{"leaf_crash", "leaf-crash", 3, 12, 1200, false},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			s, err := Build(c.scenario, c.seed, c.ticks, c.nodes)
			if err != nil {
				t.Fatal(err)
			}
			s.StateDir = t.TempDir()
			s.BreakFailSafeFloor = c.breakFloor
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

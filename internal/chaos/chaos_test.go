package chaos

import (
	"encoding/json"
	"testing"
)

// mustRun builds and runs a scenario, failing the test on harness
// errors (not on invariant violations — callers assert those).
func mustRun(t *testing.T, name string, seed int64, ticks, nodes int) Verdict {
	t.Helper()
	s, err := Build(name, seed, ticks, nodes)
	if err != nil {
		t.Fatal(err)
	}
	s.StateDir = t.TempDir()
	v, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// assertPass fails with the recorded violations when a scenario that
// must hold did not.
func assertPass(t *testing.T, v Verdict) {
	t.Helper()
	if !v.Pass {
		t.Fatalf("scenario %q seed %d: %d violations, first: %v",
			v.Scenario, v.Seed, v.ViolationCount, v.Violations)
	}
}

// TestScheduleDeterministic: the same (name, seed, ticks, nodes)
// yields a bit-identical event schedule.
func TestScheduleDeterministic(t *testing.T) {
	a, err := Build("mixed", 42, 1500, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("mixed", 42, 1500, 6)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("schedules diverge:\n%s\n%s", aj, bj)
	}
	c, err := Build("mixed", 43, 1500, 6)
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(c)
	if string(cj) == string(aj) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestVerdictDeterministic: two in-process runs of the same scenario
// produce bit-identical verdict JSON — the property that makes chaos
// failures reproducible from just (scenario, seed).
func TestVerdictDeterministic(t *testing.T) {
	v1 := mustRun(t, "mixed", 7, 900, 6)
	v2 := mustRun(t, "mixed", 7, 900, 6)
	j1, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("verdicts diverge:\n%s\n%s", j1, j2)
	}
}

// TestStaleNodeReplayDeterministic: regression for the allocator
// consulting the real clock. A node partitioned early and never healed
// goes stale, so every subsequent rebalance takes the stale-pinning
// path in AllocateBudget — the code path that used to call time.Now()
// directly. With the manager's clock injected (the fleet's simClock),
// two runs of the same scenario must produce bit-identical verdict
// JSON even though staleness verdicts are being made on every
// rebalance.
func TestStaleNodeReplayDeterministic(t *testing.T) {
	scenario := func() Scenario {
		return Scenario{
			Name:  "stale-node-replay",
			Seed:  11,
			Ticks: 600,
			Nodes: 4,
			Events: []Event{
				// Partition node 2 before the first rebalance and never
				// heal it: it fails every poll and stays stale for the
				// rest of the run.
				{Tick: 10, Kind: EvPartition, Node: 2},
			},
		}
	}
	run := func() Verdict {
		s := scenario()
		s.StateDir = t.TempDir()
		v, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1, v2 := run(), run()
	if v1.EventsApplied != 1 {
		t.Fatalf("partition event not applied: %+v", v1)
	}
	assertPass(t, v1)
	if v1.Checks[InvBudgetConserved] == 0 {
		t.Error("budget_conserved never asserted — rebalances (and their staleness verdicts) did not run")
	}
	j1, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("stale-node verdicts diverge across replays:\n%s\n%s", j1, j2)
	}
}

// TestPartitionScenarioHolds: symmetric and asymmetric partitions
// must not breach any invariant — a cut-off node keeps enforcing its
// last cap out-of-band.
func TestPartitionScenarioHolds(t *testing.T) {
	v := mustRun(t, "partition", 1, 1200, 5)
	assertPass(t, v)
	if v.Checks[InvCapRespected] == 0 {
		t.Error("cap_respected never asserted")
	}
	if v.Checks[InvBudgetConserved] == 0 {
		t.Error("budget_conserved never asserted")
	}
	if v.Checks[InvNoFailSafeSpeedup] == 0 {
		t.Error("no_failsafe_speedup never asserted")
	}
	if v.EventsApplied == 0 {
		t.Error("no events applied")
	}
}

// TestCrashRestartScenarioHolds: torn-write crashes and restarts must
// recover exactly the surviving journal prefix, and rolled-back cap
// state must still conserve the budget (decreases-first push order).
func TestCrashRestartScenarioHolds(t *testing.T) {
	v := mustRun(t, "crash-restart", 2, 1500, 5)
	assertPass(t, v)
	if v.Crashes == 0 || v.Restarts == 0 {
		t.Fatalf("scenario injected no crash/restart pairs: %+v", v)
	}
	if v.Checks[InvRecoveryIntegrity] != v.Restarts {
		t.Errorf("recovery checked %d times for %d restarts",
			v.Checks[InvRecoveryIntegrity], v.Restarts)
	}
}

// TestSensorStormScenarioHolds: blinded sensors must drive fail-safe
// entries (the defensive controller working) without any fail-safe
// speedup or cap breach.
func TestSensorStormScenarioHolds(t *testing.T) {
	v := mustRun(t, "sensor-storm", 3, 1200, 5)
	assertPass(t, v)
	if v.FailSafeEntries == 0 {
		t.Error("storm never drove a fail-safe entry")
	}
	if v.SensorFaults == 0 {
		t.Error("storm injected no sensor faults")
	}
}

// TestChurnScenarioHolds: Add/RemoveNode under load.
func TestChurnScenarioHolds(t *testing.T) {
	v := mustRun(t, "churn", 4, 1200, 5)
	assertPass(t, v)
}

// TestMixedScenarioHolds: all fault classes composed.
func TestMixedScenarioHolds(t *testing.T) {
	v := mustRun(t, "mixed", 5, 1500, 6)
	assertPass(t, v)
	if v.Crashes == 0 {
		t.Error("mixed scenario injected no crashes")
	}
}

// TestBrokenGuardCaught: with the fail-safe floor deliberately broken
// (the plant creeps back up on untrusted data), the invariant checker
// MUST flag no_failsafe_speedup — proving the harness detects real
// violations rather than vacuously passing.
func TestBrokenGuardCaught(t *testing.T) {
	s, err := Build("sensor-storm", 3, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.BreakFailSafeFloor = true
	s.StateDir = t.TempDir()
	v, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("broken fail-safe floor not caught by the invariant checker")
	}
	found := false
	for _, viol := range v.Violations {
		if contains(viol.Msg, InvNoFailSafeSpeedup) {
			found = true
			if len(viol.Trace) == 0 {
				t.Error("violation carries no trailing trace window")
			}
			for _, ev := range viol.Trace {
				if ev.WallNS != 0 {
					t.Errorf("trace event %+v carries a wall-clock stamp; verdicts must be simtime-only", ev)
				}
			}
			break
		}
	}
	if !found {
		t.Fatalf("violations do not implicate %s: %v", InvNoFailSafeSpeedup, v.Violations)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestBrokenGuardVerdictDeterministic: even failing verdicts — trace
// windows and the recovered-state dumps of recovery/convergence
// violations included — replay bit-identically, so one (scenario, seed)
// pair is a complete bug report.
func TestBrokenGuardVerdictDeterministic(t *testing.T) {
	cases := []struct {
		scenario     string
		seed         int64
		nodes, ticks int
		sabotage     func(*Scenario)
	}{
		{"sensor-storm", 3, 5, 1200, func(s *Scenario) { s.BreakFailSafeFloor = true }},
		{"failover-kill", 1, 5, 1200, func(s *Scenario) { s.BreakReplication = true }},
	}
	for _, c := range cases {
		run := func() []byte {
			s, err := Build(c.scenario, c.seed, c.ticks, c.nodes)
			if err != nil {
				t.Fatal(err)
			}
			c.sabotage(&s)
			s.StateDir = t.TempDir()
			v, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if v.Pass {
				t.Fatalf("%s: sabotaged run passed", c.scenario)
			}
			j, _ := json.Marshal(v)
			return j
		}
		if j1, j2 := run(), run(); string(j1) != string(j2) {
			t.Fatalf("%s: failing verdicts diverge:\n%s\n%s", c.scenario, j1, j2)
		}
	}
}

// TestTornCutLosesRecordsButNeverIntegrity: across many seeds the
// torn cuts land at different byte offsets (including mid-record);
// recovery integrity must hold at every one of them.
func TestTornCutLosesRecordsButNeverIntegrity(t *testing.T) {
	sawLoss := false
	for seed := int64(10); seed < 16; seed++ {
		v := mustRun(t, "crash-restart", seed, 900, 4)
		assertPass(t, v)
		if v.LostRecords > 0 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Error("no torn cut ever destroyed a record across 6 seeds; the drill is not exercising torn writes")
	}
}

// TestWireModeSoak: the same harness over real TCP sockets through
// faults.Transport. Not bit-deterministic (socket timing feeds the
// fault stream), but every invariant must still hold.
func TestWireModeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("wire soak uses real sockets and wall-clock timeouts")
	}
	s, err := Build("partition", 21, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Wire = true
	s.StateDir = t.TempDir()
	v, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	assertPass(t, v)
}

// TestRunRejectsBadScenarios: harness errors are errors, not verdicts.
func TestRunRejectsBadScenarios(t *testing.T) {
	if _, err := Run(Scenario{Name: "x", Ticks: 0, Nodes: 3}); err == nil {
		t.Error("zero ticks accepted")
	}
	if _, err := Run(Scenario{Name: "x", Ticks: 10, Nodes: 2, Events: []Event{{Tick: 1, Kind: EvPartition, Node: 5}}}); err == nil {
		t.Error("out-of-range event target accepted")
	}
	if _, err := Build("nope", 1, 10, 2); err == nil {
		t.Error("unknown scenario name accepted")
	}
}

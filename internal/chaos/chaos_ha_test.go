package chaos

import (
	"encoding/json"
	"testing"
)

// TestFailoverKillScenarioHolds: killing the leader mid-budget-push
// (journal torn, half a decreases-first sweep landed) fails over to
// the standby repeatedly, and every invariant — including the
// convergence of each promoted replica with the dead primary's
// journaled history — holds throughout.
func TestFailoverKillScenarioHolds(t *testing.T) {
	v := mustRun(t, "failover-kill", 1, 1200, 5)
	assertPass(t, v)
	if v.Failovers == 0 {
		t.Fatal("failover-kill scheduled no failovers")
	}
	if v.Crashes == 0 {
		t.Fatal("failover-kill killed no leaders")
	}
	if got := v.Checks[InvReplicaConvergence]; got != v.Failovers {
		t.Fatalf("replica_convergence checked %d times for %d failovers", got, v.Failovers)
	}
}

// TestFenceDuelScenarioHolds: a stalled leader that keeps actuating
// while the standby takes over must be stopped by the node-side fence
// — fenced pushes observed, zero stale actuations reaching a plant.
func TestFenceDuelScenarioHolds(t *testing.T) {
	v := mustRun(t, "fence-duel", 1, 1200, 5)
	assertPass(t, v)
	if v.Failovers == 0 {
		t.Fatal("fence-duel promoted no standby")
	}
	if v.FencedPushes == 0 {
		t.Fatal("fence-duel recorded no fenced pushes: the duel never happened")
	}
}

// TestReplicaTornTailScenarioHolds: failover onto replicas whose
// journals were torn at seeded offsets. At least one seed must
// actually destroy acknowledged replicated records, or the scenario
// is not exercising the torn-tail recovery path it exists for.
func TestReplicaTornTailScenarioHolds(t *testing.T) {
	sawLoss := false
	for seed := int64(1); seed <= 4; seed++ {
		v := mustRun(t, "replica-torn-tail", seed, 1200, 5)
		assertPass(t, v)
		if v.Failovers == 0 {
			t.Fatalf("seed %d: no failovers", seed)
		}
		if v.ReplicaLostRecords > 0 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("no seed tore any replicated records; torn-tail path unexercised")
	}
}

// TestHAVerdictsDeterministic: HA runs — lease timing, replication
// pumping, failover, fencing duels included — replay bit-identically.
func TestHAVerdictsDeterministic(t *testing.T) {
	for _, name := range []string{"failover-kill", "fence-duel", "replica-torn-tail"} {
		v1 := mustRun(t, name, 5, 900, 4)
		v2 := mustRun(t, name, 5, 900, 4)
		j1, err := json.Marshal(v1)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := json.Marshal(v2)
		if err != nil {
			t.Fatal(err)
		}
		if string(j1) != string(j2) {
			t.Fatalf("%s: verdicts diverge:\n%s\n%s", name, j1, j2)
		}
	}
}

// TestBrokenFencingCaught: with the nodes' stale-epoch fence disabled,
// a deposed leader's pushes actuate the plant — and the single_writer
// invariant must flag it. Proves the checker detects real split-brain
// rather than vacuously passing.
func TestBrokenFencingCaught(t *testing.T) {
	s, err := Build("fence-duel", 1, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.BreakFencing = true
	s.StateDir = t.TempDir()
	v, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("disabled fence not caught by the single_writer invariant")
	}
	found := false
	for _, viol := range v.Violations {
		if contains(viol.Msg, InvSingleWriter) {
			found = true
			if len(viol.Trace) == 0 {
				t.Error("violation carries no trailing trace window")
			}
			break
		}
	}
	if !found {
		t.Fatalf("no single_writer violation recorded; first: %v", v.Violations[0])
	}
}

// TestBrokenReplicationCaught: with every replicated node record
// silently skewed in flight, the promoted standby's state diverges
// from the primary's journaled history — and replica_convergence must
// flag it. The replica itself applies and acknowledges the corrupt
// records happily, so only the independent leader book can tell.
func TestBrokenReplicationCaught(t *testing.T) {
	s, err := Build("failover-kill", 1, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.BreakReplication = true
	s.StateDir = t.TempDir()
	v, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("corrupted replication not caught by the replica_convergence invariant")
	}
	found := false
	for _, viol := range v.Violations {
		if contains(viol.Msg, InvReplicaConvergence) {
			found = true
			if len(viol.Trace) == 0 {
				t.Error("violation carries no trailing trace window")
			}
			break
		}
	}
	if !found {
		t.Fatalf("no replica_convergence violation recorded; first: %v", v.Violations[0])
	}
}

// TestHAValidation: HA event kinds demand an HA scenario, solo
// crash-restart events are refused in HA mode, and wire mode is
// incompatible with HA.
func TestHAValidation(t *testing.T) {
	base := Scenario{Name: "x", Ticks: 100, Nodes: 2}

	s := base
	s.Events = []Event{{Tick: 1, Kind: EvKillPrimary}}
	if _, err := Run(s); err == nil {
		t.Error("kill-primary accepted without HA")
	}

	s = base
	s.HA = true
	s.Events = []Event{{Tick: 1, Kind: EvCrash}}
	if _, err := Run(s); err == nil {
		t.Error("solo crash event accepted in HA mode")
	}

	s = base
	s.HA = true
	s.Wire = true
	if _, err := Run(s); err == nil {
		t.Error("HA accepted with wire mode")
	}
}

// TestPromotionStampsDaemonGeneration: the harness promotes through
// the daemon's rule (daemon.Promote), so a failed-over leader's
// replication generation is what SetGenForEpoch stamps — the lease
// epoch over the state dir's incarnation — not the bare epoch.
func TestPromotionStampsDaemonGeneration(t *testing.T) {
	s, err := Build("failover-kill", 1, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFleet(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	v, err := f.run()
	if err != nil {
		t.Fatal(err)
	}
	mgr := f.leader()
	if v.Failovers == 0 || mgr == nil || mgr.Epoch() < 2 {
		t.Fatalf("no promoted leader at the end: %d failovers, leader %v", v.Failovers, mgr)
	}
	st := mgr.Store()
	if got, want := st.Gen(), mgr.Epoch()<<32|st.Incarnation(); got != want {
		t.Errorf("leader at epoch %d, incarnation %d: gen %#x, want %#x", mgr.Epoch(), st.Incarnation(), got, want)
	}
}

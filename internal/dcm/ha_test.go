package dcm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"nodecap/internal/dcm/store"
	"nodecap/internal/ipmi"
	"nodecap/internal/telemetry"
)

func TestStandbyRefusesMutations(t *testing.T) {
	b := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": b})
	if err := m.AddNode("a", "a"); err != nil {
		t.Fatal(err)
	}
	m.SetFencing(RoleStandby, 0)

	if err := m.SetNodeCap("a", 140); !errors.Is(err, ErrNotLeader) {
		t.Errorf("standby SetNodeCap err = %v, want ErrNotLeader", err)
	}
	if _, err := m.ApplyBudget(300, []string{"a"}); !errors.Is(err, ErrNotLeader) {
		t.Errorf("standby ApplyBudget err = %v, want ErrNotLeader", err)
	}
	if got := readLimit(b); got.Enabled {
		t.Errorf("standby actuated the plant: %+v", got)
	}
	// A standby poll observes but never reconciles.
	b.mu.Lock()
	b.limit = ipmi.PowerLimit{Enabled: true, CapWatts: 99}
	b.mu.Unlock()
	m.Poll()
	if got := readLimit(b); got.CapWatts != 99 {
		t.Errorf("standby poll re-pushed a policy: %+v", got)
	}

	// Promotion lifts the gate.
	m.SetFencing(RolePrimary, 2)
	if err := m.SetNodeCap("a", 140); err != nil {
		t.Fatal(err)
	}
}

func TestPushesCarryFencingEpoch(t *testing.T) {
	b := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": b})
	m.AddNode("a", "a")

	// Solo (epoch 0): legacy unfenced pushes.
	if err := m.SetNodeCap("a", 150); err != nil {
		t.Fatal(err)
	}
	if got := readLimit(b); got.Epoch != 0 {
		t.Errorf("solo push epoch = %d, want 0", got.Epoch)
	}

	m.SetFencing(RolePrimary, 7)
	if err := m.SetNodeCap("a", 140); err != nil {
		t.Fatal(err)
	}
	if got := readLimit(b); got.Epoch != 7 || got.CapWatts != 140 {
		t.Errorf("fenced push = %+v, want epoch 7 / 140 W", got)
	}

	// The reconcile re-push is stamped with the *current* epoch, not
	// the one desired state was recorded under.
	m.SetFencing(RolePrimary, 8)
	b.mu.Lock()
	b.limit = ipmi.PowerLimit{Enabled: true, CapWatts: 60} // rogue drift
	b.mu.Unlock()
	m.Poll()
	if got := readLimit(b); got.Epoch != 8 || got.CapWatts != 140 {
		t.Errorf("reconciled push = %+v, want epoch 8 / 140 W", got)
	}
}

func TestStaleEpochPushMarksFenced(t *testing.T) {
	b := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": b})
	m.AddNode("a", "a")
	m.SetFencing(RolePrimary, 3)
	if err := m.SetNodeCap("a", 140); err != nil {
		t.Fatal(err)
	}

	// The node has seen a newer leader: every push now bounces.
	b.mu.Lock()
	b.setErr = ipmi.ErrStaleEpoch
	b.mu.Unlock()
	err := m.SetNodeCap("a", 130)
	if !errors.Is(err, ipmi.ErrStaleEpoch) {
		t.Fatalf("push err = %v, want ErrStaleEpoch", err)
	}
	if !m.Fenced() {
		t.Error("manager not marked fenced after a stale-epoch rejection")
	}
	// The rejection is an authority verdict, not a transport fault: the
	// connection survives and no backoff gate is armed.
	if b.closed {
		t.Error("connection dropped on a stale-epoch rejection")
	}
	if s := status(t, m, "a"); !s.Reachable || s.ConsecFailures != 0 {
		t.Errorf("fenced push treated as transport failure: %+v", s)
	}
	// SetFencing (a later legitimate promotion) clears the verdict.
	m.SetFencing(RolePrimary, 9)
	if m.Fenced() {
		t.Error("Fenced survived SetFencing")
	}
}

// haPair builds two managers over the same fakes and state-dir-less
// lease, with a shared deterministic clock.
func haPair(t *testing.T, bmcs map[string]*fakeBMC) (*Manager, *Manager, *HANode, *HANode, *fakeClockHA) {
	t.Helper()
	clk := &fakeClockHA{now: time.Unix(5000, 0)}
	lease := store.NewLeaseFile(store.LeasePath(t.TempDir()))
	lease.Clock = clk.read
	m1, m2 := fleet(bmcs), fleet(bmcs)
	h1 := &HANode{ID: "m1", Lease: lease, TTL: 10 * time.Second, Mgr: m1}
	h2 := &HANode{ID: "m2", Lease: lease, TTL: 10 * time.Second, Mgr: m2}
	return m1, m2, h1, h2, clk
}

type fakeClockHA struct{ now time.Time }

func (c *fakeClockHA) read() time.Time         { return c.now }
func (c *fakeClockHA) advance(d time.Duration) { c.now = c.now.Add(d) }

func TestHAFailover(t *testing.T) {
	b := newFakeBMC(150)
	bmcs := map[string]*fakeBMC{"a": b}
	m1, m2, h1, h2, clk := haPair(t, bmcs)

	var promotedAt uint64
	h2.OnPromote = func(epoch uint64) { promotedAt = epoch }

	if role, err := h1.Start(); err != nil || role != RolePrimary {
		t.Fatalf("m1 Start = %v, %v", role, err)
	}
	if role, err := h2.Start(); err != nil || role != RoleStandby {
		t.Fatalf("m2 Start = %v, %v", role, err)
	}
	if m1.Epoch() != 1 || m1.Role() != RolePrimary {
		t.Fatalf("primary fencing = %v/%d", m1.Role(), m1.Epoch())
	}

	// Primary actuates; the standby fleet has the same node registered
	// (mirroring the journal) but never pushes.
	if err := m1.AddNode("a", "a"); err != nil {
		t.Fatal(err)
	}
	if err := m2.AddNode("a", "a"); err != nil {
		t.Fatal(err)
	}
	if err := m1.SetNodeCap("a", 140); err != nil {
		t.Fatal(err)
	}
	if got := readLimit(b); got.Epoch != 1 || got.CapWatts != 140 {
		t.Fatalf("primary push = %+v", got)
	}
	// Standby mirrors desired state without actuating (as journal
	// replay would); needed so its announce round has something to say.
	m2.mu.Lock()
	n2 := m2.nodes["a"]
	n2.desired = ipmi.PowerLimit{Enabled: true, CapWatts: 140}
	n2.haveDesired = true
	m2.mu.Unlock()

	// Heartbeats inside the TTL change nothing.
	clk.advance(4 * time.Second)
	if ch, err := h1.Tick(); err != nil || ch {
		t.Fatalf("live renewal changed leadership: %v, %v", ch, err)
	}
	if ch, err := h2.Tick(); err != nil || ch {
		t.Fatalf("standby stole a live lease: %v, %v", ch, err)
	}

	// m1 dies (stops renewing); the TTL runs out; m2 takes over with a
	// bumped epoch and announces it to the fleet.
	clk.advance(11 * time.Second)
	ch, err := h2.Tick()
	if err != nil || !ch {
		t.Fatalf("takeover = %v, %v", ch, err)
	}
	if m2.Role() != RolePrimary || m2.Epoch() != 2 || promotedAt != 2 {
		t.Fatalf("promoted standby = %v/%d (OnPromote %d)", m2.Role(), m2.Epoch(), promotedAt)
	}
	// The announce round re-pushed the same cap under the new epoch.
	if got := readLimit(b); got.Epoch != 2 || got.CapWatts != 140 {
		t.Fatalf("announce push = %+v, want epoch 2 / 140 W", got)
	}

	// The deposed primary notices on its next heartbeat and steps down.
	ch, err = h1.Tick()
	if err != nil || !ch {
		t.Fatalf("deposed renewal = %v, %v", ch, err)
	}
	if m1.Role() != RoleStandby {
		t.Errorf("deposed primary role = %v, want standby", m1.Role())
	}
	if err := m1.SetNodeCap("a", 100); !errors.Is(err, ErrNotLeader) {
		t.Errorf("deposed primary still actuates: %v", err)
	}
}

func TestHAExpiredSelfReacquireReannounces(t *testing.T) {
	b := newFakeBMC(150)
	m1, _, h1, _, clk := haPair(t, map[string]*fakeBMC{"a": b})
	if _, err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	m1.AddNode("a", "a")
	if err := m1.SetNodeCap("a", 140); err != nil {
		t.Fatal(err)
	}
	// The primary stalls past its own TTL (GC pause, partition from the
	// lease dir) but nobody took over. Re-acquiring bumps the epoch —
	// someone *could* have led in the gap — and re-announces.
	clk.advance(h1.TTL + time.Second)
	ch, err := h1.Tick()
	if err != nil || !ch {
		t.Fatalf("lapsed renewal = %v, %v", ch, err)
	}
	if m1.Epoch() != 2 || m1.Role() != RolePrimary {
		t.Fatalf("re-acquired fencing = %v/%d, want primary/2", m1.Role(), m1.Epoch())
	}
	if got := readLimit(b); got.Epoch != 2 {
		t.Errorf("re-announce epoch = %d, want 2", got.Epoch)
	}
}

func TestHAStepDownHandsOver(t *testing.T) {
	_, m2, h1, h2, _ := haPair(t, map[string]*fakeBMC{})
	if _, err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h1.StepDown(); err != nil {
		t.Fatal(err)
	}
	if h1.Mgr.Role() != RoleStandby {
		t.Errorf("stepped-down role = %v", h1.Mgr.Role())
	}
	// No TTL wait: the peer promotes on its very next heartbeat.
	ch, err := h2.Tick()
	if err != nil || !ch {
		t.Fatalf("post-release takeover = %v, %v", ch, err)
	}
	if m2.Role() != RolePrimary || m2.Epoch() != 2 {
		t.Errorf("handed-over fencing = %v/%d", m2.Role(), m2.Epoch())
	}
}

func TestServerLeaderOpAndEpochGate(t *testing.T) {
	b := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": b})
	m.AddNode("a", "a")
	m.SetFencing(RolePrimary, 4)
	s := NewServer(m)

	r := s.Handle(Request{Op: "leader"})
	if !r.OK || r.Role != "primary" || r.Epoch != 4 || r.Fenced {
		t.Fatalf("leader = %+v", r)
	}
	if r = s.Handle(Request{Op: "nodes"}); !r.OK || r.Role != "primary" || r.Epoch != 4 {
		t.Fatalf("nodes HA fields = %+v", r)
	}

	// A mutating op carrying a stale epoch is refused before it touches
	// the manager; without an epoch it passes (legacy clients).
	r = s.Handle(Request{Op: "setcap", Name: "a", Cap: 140, Epoch: 3})
	if r.OK || !strings.Contains(r.Error, "stale client epoch") {
		t.Fatalf("stale-epoch setcap = %+v", r)
	}
	if got := readLimit(b); got.Enabled {
		t.Fatalf("stale-epoch setcap actuated: %+v", got)
	}
	if r = s.Handle(Request{Op: "setcap", Name: "a", Cap: 140, Epoch: 4}); !r.OK {
		t.Fatalf("current-epoch setcap = %+v", r)
	}
	if r = s.Handle(Request{Op: "setcap", Name: "a", Cap: 135}); !r.OK {
		t.Fatalf("epochless setcap = %+v", r)
	}

	// Reads are never epoch-gated: a dashboard with a stale cursor
	// still sees the fleet.
	if r = s.Handle(Request{Op: "nodes", Epoch: 1}); !r.OK {
		t.Fatalf("stale-epoch read refused: %+v", r)
	}

	// SetControl swaps the served manager (promotion in a daemon).
	m2 := fleet(map[string]*fakeBMC{})
	m2.SetFencing(RoleStandby, 4)
	s.SetControl(m2)
	if r = s.Handle(Request{Op: "leader"}); r.Role != "standby" {
		t.Fatalf("leader after swap = %+v", r)
	}
	if r = s.Handle(Request{Op: "setcap", Name: "a", Cap: 120}); r.OK {
		t.Fatal("standby-served setcap succeeded")
	}
}

func TestLeaderChangeAndFencedTraceEvents(t *testing.T) {
	b := newFakeBMC(150)
	m1, _, h1, h2, clk := haPair(t, map[string]*fakeBMC{"a": b})
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTrace(64)
	m1.SetTelemetry(reg, tr)
	h2.Mgr.SetTelemetry(reg, tr)

	if _, err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	m1.AddNode("a", "a")
	clk.advance(h1.TTL + time.Second)
	if _, err := h2.Tick(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	b.setErr = ipmi.ErrStaleEpoch
	b.mu.Unlock()
	m1.SetNodeCap("a", 100) // deposed push bounces

	var leaderEvs, fencedEvs int
	for _, ev := range tr.Tail(64, "") {
		switch ev.Kind {
		case telemetry.EvLeaderChange:
			leaderEvs++
		case telemetry.EvFenced:
			fencedEvs++
		}
	}
	if leaderEvs < 2 { // m1 promoted at start, m2 promoted at takeover
		t.Errorf("leader-change events = %d, want >= 2", leaderEvs)
	}
	if fencedEvs != 1 {
		t.Errorf("fenced events = %d, want 1", fencedEvs)
	}
	snap := reg.Snapshot()
	if v := snap.Counters["dcm_leader_changes_total"]; v < 2 {
		t.Errorf("dcm_leader_changes_total = %v", v)
	}
	if v := snap.Counters["dcm_fenced_pushes_total"]; v != 1 {
		t.Errorf("dcm_fenced_pushes_total = %v", v)
	}
}

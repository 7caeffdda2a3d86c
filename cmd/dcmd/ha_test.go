package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/dcm/store"
	"nodecap/internal/ipmi"
	"nodecap/internal/machine"
	"nodecap/internal/nodeagent"
)

// haTTL is short enough that failover tests finish quickly but leaves
// the renewal heartbeat (TTL/3) plenty of margin on a loaded CI box.
const haTTL = 400 * time.Millisecond

// simNode stands up one simulated node and returns its BMC address.
func simNode(t *testing.T) string {
	t.Helper()
	agent := nodeagent.New(machine.Romley(), nodeagent.Options{})
	t.Cleanup(agent.Stop)
	srv := ipmi.NewServer(agent)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func haDial(a string) (dcm.BMC, error) {
	return ipmi.DialTimeout(a, time.Second, time.Second)
}

func silentLog(string, ...any) {}

// manager reads the daemon's current manager; promotion swaps it from
// the heartbeat goroutine.
func (d *daemon) manager() *dcm.Manager {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mgr
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestParseFlagsHA(t *testing.T) {
	o, err := parseFlags([]string{
		"-state-dir", "/tmp/x",
		"-standby-of", "127.0.0.1:9660",
		"-replica-addr", "127.0.0.1:9661",
		"-lease", "/shared/l.json",
		"-ha-id", "b",
		"-lease-ttl", "2s",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.StandbyOf != "127.0.0.1:9660" || o.ReplicaAddr != "127.0.0.1:9661" ||
		o.Lease != "/shared/l.json" || o.HAID != "b" || o.LeaseTTL != 2*time.Second {
		t.Errorf("HA flags: %+v", o)
	}
	if !o.haEnabled() {
		t.Error("haEnabled false with both HA flags set")
	}
	if o.leasePath() != "/shared/l.json" || o.haID() != "b" {
		t.Errorf("resolved lease=%q id=%q", o.leasePath(), o.haID())
	}

	o, err = parseFlags([]string{"-state-dir", "/tmp/x", "-listen", "127.0.0.1:7"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.haEnabled() {
		t.Error("haEnabled true without HA flags")
	}
	if o.leasePath() != store.LeasePath("/tmp/x") || o.haID() != "127.0.0.1:7" {
		t.Errorf("defaults: lease=%q id=%q", o.leasePath(), o.haID())
	}
}

// TestHARequiresStateDir: an HA member without a journal has nothing
// to replicate or recover; start must refuse it.
func TestHARequiresStateDir(t *testing.T) {
	_, err := start(options{Listen: "127.0.0.1:0", Poll: time.Hour, ReplicaAddr: "127.0.0.1:0"}, haDial, silentLog)
	if err == nil {
		t.Fatal("-replica-addr accepted without -state-dir")
	}
	_, err = start(options{Listen: "127.0.0.1:0", Poll: time.Hour, StandbyOf: "127.0.0.1:1"}, haDial, silentLog)
	if err == nil {
		t.Fatal("-standby-of accepted without -state-dir")
	}
}

// startPrimary brings up the primary half of an HA pair.
func startPrimary(t *testing.T, stateDir, lease, id string) *daemon {
	t.Helper()
	d, err := start(options{
		Listen: "127.0.0.1:0", Poll: time.Hour,
		RetryBase: time.Nanosecond, RetryMax: time.Nanosecond,
		StaleAfter: dcm.DefaultStaleAfter,
		StateDir:   stateDir, ReplicaAddr: "127.0.0.1:0",
		Lease: lease, HAID: id, LeaseTTL: haTTL,
	}, haDial, silentLog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// startStandbyOf brings up a standby pulling from replAddr.
func startStandbyOf(t *testing.T, stateDir, lease, id, replAddr string) *daemon {
	t.Helper()
	d, err := start(options{
		Listen: "127.0.0.1:0", Poll: time.Hour,
		RetryBase: time.Nanosecond, RetryMax: time.Nanosecond,
		StaleAfter: dcm.DefaultStaleAfter,
		StateDir:   stateDir, StandbyOf: replAddr, ReplicaAddr: "127.0.0.1:0",
		Lease: lease, HAID: id, LeaseTTL: haTTL,
	}, haDial, silentLog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestHAFailover is the end-to-end pair: the primary registers a node
// and caps it, the standby replicates, the primary dies without
// releasing its lease, and the standby must take over — epoch bumped,
// node and cap restored from the replicated journal, and new
// mutations served.
func TestHAFailover(t *testing.T) {
	nodeAddr := simNode(t)
	lease := filepath.Join(t.TempDir(), "lease.json")

	p := startPrimary(t, t.TempDir(), lease, "a")
	if resp := p.srv.Handle(dcm.Request{Op: "add", Name: "sim0", Addr: nodeAddr}); resp.Error != "" {
		t.Fatalf("add: %s", resp.Error)
	}
	if resp := p.srv.Handle(dcm.Request{Op: "setcap", Name: "sim0", Cap: 145}); resp.Error != "" {
		t.Fatalf("setcap: %s", resp.Error)
	}
	if got := p.srv.Handle(dcm.Request{Op: "leader"}); got.Role != string(dcm.RolePrimary) || got.Epoch != 1 {
		t.Fatalf("leader: role=%q epoch=%d, want primary/1", got.Role, got.Epoch)
	}

	s := startStandbyOf(t, t.TempDir(), lease, "b", p.ReplAddr)
	if got := s.srv.Handle(dcm.Request{Op: "leader"}); got.Role != string(dcm.RoleStandby) {
		t.Fatalf("standby leader op: role=%q", got.Role)
	}
	if resp := s.srv.Handle(dcm.Request{Op: "setcap", Name: "sim0", Cap: 130}); resp.Error == "" {
		t.Fatal("standby accepted a mutation")
	}
	waitFor(t, 5*time.Second, "replica sync", func() bool { return s.rep.Gen() != 0 && s.rep.Cursor() >= 2 })

	// Hard-kill the primary: no StepDown, the lease must expire on its
	// own before the standby may promote.
	p.Close()
	// Promotion is visible in two steps: the placeholder is fenced
	// primary first, then the manager rebuilt from the replicated
	// journal is swapped in — wait for the restored fleet, not just the
	// role flip.
	waitFor(t, 10*time.Second, "standby promotion", func() bool {
		m := s.manager()
		return m.Role() == dcm.RolePrimary && len(m.Nodes()) == 1
	})

	got := s.srv.Handle(dcm.Request{Op: "leader"})
	if got.Role != string(dcm.RolePrimary) || got.Epoch != 2 {
		t.Fatalf("promoted leader: role=%q epoch=%d, want primary/2", got.Role, got.Epoch)
	}
	nodes := s.srv.Handle(dcm.Request{Op: "nodes"})
	if len(nodes.Nodes) != 1 || nodes.Nodes[0].Name != "sim0" {
		t.Fatalf("restored nodes: %+v", nodes.Nodes)
	}
	if n := nodes.Nodes[0]; !n.CapEnabled || n.CapWatts != 145 {
		t.Fatalf("replicated cap lost: %+v", n)
	}
	// The new primary serves mutations and reaches the plant.
	if resp := s.srv.Handle(dcm.Request{Op: "setcap", Name: "sim0", Cap: 160}); resp.Error != "" {
		t.Fatalf("post-failover setcap: %s", resp.Error)
	}
	// And it serves its own replication feed for the next standby.
	if s.ReplAddr == "" {
		t.Fatal("promoted standby serves no replication feed")
	}
}

// TestHAGracefulHandover (S3): SIGTERM-path shutdown releases the
// lease and compacts the journal, so a peer takes over instantly —
// no TTL wait — and reopens the state dir from one clean snapshot.
func TestHAGracefulHandover(t *testing.T) {
	nodeAddr := simNode(t)
	lease := filepath.Join(t.TempDir(), "lease.json")
	dirA := t.TempDir()

	p := startPrimary(t, dirA, lease, "a")
	if resp := p.srv.Handle(dcm.Request{Op: "add", Name: "sim0", Addr: nodeAddr}); resp.Error != "" {
		t.Fatalf("add: %s", resp.Error)
	}
	if resp := p.srv.Handle(dcm.Request{Op: "setcap", Name: "sim0", Cap: 150}); resp.Error != "" {
		t.Fatalf("setcap: %s", resp.Error)
	}
	s := startStandbyOf(t, t.TempDir(), lease, "b", p.ReplAddr)
	waitFor(t, 5*time.Second, "replica sync", func() bool { return s.rep.Gen() != 0 && s.rep.Cursor() >= 2 })

	start := time.Now()
	p.Shutdown()

	// Drained: the journal is compacted into the snapshot.
	if j, err := os.Stat(store.JournalPath(dirA)); err != nil {
		t.Fatalf("journal after shutdown: %v", err)
	} else if j.Size() != 0 {
		t.Errorf("journal not compacted: %d bytes after graceful shutdown", j.Size())
	}
	if _, err := os.Stat(store.SnapshotPath(dirA)); err != nil {
		t.Errorf("no snapshot after graceful shutdown: %v", err)
	}

	// Released: the lease is claimable immediately. The standby's
	// heartbeat may have seized it already — that IS the fast handover
	// — so accept either an expired lease or one the peer now holds.
	l, ok, err := store.NewLeaseFile(lease).Read()
	if err != nil || !ok {
		t.Fatalf("lease after shutdown: %v ok=%v", err, ok)
	}
	if !l.Expired(time.Now()) && l.Holder != "b" {
		t.Errorf("lease neither released nor taken over: held by %q until %d", l.Holder, l.ExpiresNS)
	}

	// The peer takes over well inside the TTL it would otherwise wait.
	waitFor(t, 10*time.Second, "handover", func() bool {
		m := s.manager()
		return m.Role() == dcm.RolePrimary && len(m.Nodes()) == 1
	})
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Errorf("handover took %v", elapsed)
	}
	if got := s.srv.Handle(dcm.Request{Op: "leader"}); got.Epoch != 2 {
		t.Errorf("handover epoch %d, want 2", got.Epoch)
	}
}

// TestHAStandbyRestartPromotesWithoutPrimary: the primary dies for
// good and the standby process restarts. The restarted standby must
// recover its replication resume point from its state dir and still
// take over — a fresh gen-0 replica would wait forever for a frame
// from the dead primary, leaving the fleet headless despite holding a
// valid replicated copy of its state.
func TestHAStandbyRestartPromotesWithoutPrimary(t *testing.T) {
	nodeAddr := simNode(t)
	lease := filepath.Join(t.TempDir(), "lease.json")

	p := startPrimary(t, t.TempDir(), lease, "a")
	if resp := p.srv.Handle(dcm.Request{Op: "add", Name: "sim0", Addr: nodeAddr}); resp.Error != "" {
		t.Fatalf("add: %s", resp.Error)
	}
	if resp := p.srv.Handle(dcm.Request{Op: "setcap", Name: "sim0", Cap: 145}); resp.Error != "" {
		t.Fatalf("setcap: %s", resp.Error)
	}
	sbyDir := t.TempDir()
	s := startStandbyOf(t, sbyDir, lease, "b", p.ReplAddr)
	waitFor(t, 5*time.Second, "replica sync", func() bool { return s.rep.Gen() != 0 && s.rep.Cursor() >= 2 })

	// The standby process dies first, then the primary — which never
	// releases its lease. Only the standby comes back.
	s.Close()
	p.Close()
	s2 := startStandbyOf(t, sbyDir, lease, "b", p.ReplAddr)
	if g := s2.rep.Gen(); g == 0 {
		t.Fatal("restarted standby recovered no resume point; it can never promote")
	}
	waitFor(t, 10*time.Second, "restarted standby promotion", func() bool {
		m := s2.manager()
		return m.Role() == dcm.RolePrimary && len(m.Nodes()) == 1
	})
	got := s2.srv.Handle(dcm.Request{Op: "leader"})
	if got.Role != string(dcm.RolePrimary) || got.Epoch != 2 {
		t.Fatalf("promoted leader: role=%q epoch=%d, want primary/2", got.Role, got.Epoch)
	}
	nodes := s2.srv.Handle(dcm.Request{Op: "nodes"})
	if len(nodes.Nodes) != 1 || nodes.Nodes[0].Name != "sim0" {
		t.Fatalf("restored nodes: %+v", nodes.Nodes)
	}
	if n := nodes.Nodes[0]; !n.CapEnabled || n.CapWatts != 145 {
		t.Fatalf("replicated cap lost across standby restart: %+v", n)
	}
}

// TestHASecondPrimaryRefused: a second member configured as primary
// (not -standby-of) against a live lease must refuse to start instead
// of fighting for the fleet.
func TestHASecondPrimaryRefused(t *testing.T) {
	lease := filepath.Join(t.TempDir(), "lease.json")
	p := startPrimary(t, t.TempDir(), lease, "a")
	defer p.Close()

	_, err := start(options{
		Listen: "127.0.0.1:0", Poll: time.Hour,
		StateDir: t.TempDir(), ReplicaAddr: "127.0.0.1:0",
		Lease: lease, HAID: "b", LeaseTTL: haTTL,
	}, haDial, silentLog)
	if err == nil {
		t.Fatal("second primary started against a live lease")
	}
}

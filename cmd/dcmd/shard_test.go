package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
	"nodecap/internal/machine"
	"nodecap/internal/nodeagent"
)

// shardedOpts is the daemon configuration every sharded test shares;
// restart tests reuse it verbatim against the same state dir.
func shardedOpts(stateDir string) options {
	return options{
		Listen:     "127.0.0.1:0",
		Poll:       time.Hour, // tests poll explicitly
		ConnectTO:  time.Second,
		RequestTO:  time.Second,
		RetryBase:  time.Nanosecond,
		RetryMax:   time.Nanosecond,
		StaleAfter: dcm.DefaultStaleAfter,
		StateDir:   stateDir,
		Shards:     2,
	}
}

// startBMCs brings up n simulated nodes and returns their addresses.
func startBMCs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		agent := nodeagent.New(machine.Romley(), nodeagent.Options{})
		t.Cleanup(agent.Stop)
		srv := ipmi.NewServer(agent)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	return addrs
}

// TestShardedDaemonLifecycle drives a -shards daemon end to end: adds
// route through the ring to leaf managers, fleet listings aggregate
// across the leaves sorted, per-node ops reach the owner, and the
// budget op cascades across the tree.
func TestShardedDaemonLifecycle(t *testing.T) {
	addrs := startBMCs(t, 4)
	opts := shardedOpts(t.TempDir())
	d, err := start(opts, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for i, a := range addrs {
		if resp := d.srv.Handle(dcm.Request{Op: "add", Name: fmt.Sprintf("n%d", i), Addr: a}); resp.Error != "" {
			t.Fatalf("add n%d: %s", i, resp.Error)
		}
	}

	resp := d.srv.Handle(dcm.Request{Op: "nodes"})
	if resp.Error != "" || resp.Role != "aggregator" {
		t.Fatalf("nodes: %+v", resp)
	}
	if len(resp.Nodes) != len(addrs) {
		t.Fatalf("aggregate lists %d of %d nodes", len(resp.Nodes), len(addrs))
	}
	for i := 1; i < len(resp.Nodes); i++ {
		if resp.Nodes[i-1].Name >= resp.Nodes[i].Name {
			t.Fatalf("aggregate not sorted: %q before %q", resp.Nodes[i-1].Name, resp.Nodes[i].Name)
		}
	}

	resp = d.srv.Handle(dcm.Request{Op: "shards"})
	if resp.Error != "" || len(resp.Shards) != opts.Shards {
		t.Fatalf("shards: %+v", resp)
	}
	total := 0
	for _, sh := range resp.Shards {
		if !sh.Alive {
			t.Errorf("leaf %s not alive", sh.Leaf)
		}
		total += sh.Nodes
	}
	if total != len(addrs) {
		t.Fatalf("shards own %d of %d nodes", total, len(addrs))
	}

	if resp := d.srv.Handle(dcm.Request{Op: "setcap", Name: "n0", Cap: 150}); resp.Error != "" {
		t.Fatalf("setcap: %s", resp.Error)
	}
	if resp := d.srv.Handle(dcm.Request{Op: "settier", Name: "n1", Tier: "high"}); resp.Error != "" {
		t.Fatalf("settier: %s", resp.Error)
	}
	resp = d.srv.Handle(dcm.Request{Op: "budget", Budget: 500})
	if resp.Error != "" || len(resp.Allocs) != opts.Shards {
		t.Fatalf("budget: %+v", resp)
	}
	var granted float64
	for _, a := range resp.Allocs {
		granted += a.CapWatts
	}
	if granted > 500+1e-6 {
		t.Fatalf("cascade granted %.1f W of a 500 W budget", granted)
	}
}

// TestShardedDaemonRestartRestoresOwnership: a restarted daemon
// reloads the journaled shard map and the per-leaf registries, so the
// fleet comes back with identical ownership and no re-adds.
func TestShardedDaemonRestartRestoresOwnership(t *testing.T) {
	addrs := startBMCs(t, 4)
	opts := shardedOpts(t.TempDir())
	d, err := start(opts, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if resp := d.srv.Handle(dcm.Request{Op: "add", Name: fmt.Sprintf("n%d", i), Addr: a}); resp.Error != "" {
			t.Fatalf("add n%d: %s", i, resp.Error)
		}
	}
	owners := make(map[string]string)
	for i := range addrs {
		name := fmt.Sprintf("n%d", i)
		owner, ok := d.shTree.Owner(name)
		if !ok {
			t.Fatalf("no owner for %s", name)
		}
		owners[name] = owner
	}
	d.Close()

	d2, err := start(opts, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	resp := d2.srv.Handle(dcm.Request{Op: "nodes"})
	if len(resp.Nodes) != len(addrs) {
		t.Fatalf("restart lists %d of %d nodes", len(resp.Nodes), len(addrs))
	}
	for name, want := range owners {
		got, ok := d2.shTree.Owner(name)
		if !ok || got != want {
			t.Errorf("restart moved %s: owner %q (was %q)", name, got, want)
		}
	}
}

// TestShardedDaemonRestartWithChangedShards: a shard map that names
// other leaves than -shards does is not restorable; the daemon rebuilds
// the ring and re-registers through it every node the leaf journals
// carried, so the whole fleet is still listed and owned exactly once.
func TestShardedDaemonRestartWithChangedShards(t *testing.T) {
	addrs := startBMCs(t, 4)
	opts := shardedOpts(t.TempDir())
	d, err := start(opts, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if resp := d.srv.Handle(dcm.Request{Op: "add", Name: fmt.Sprintf("n%d", i), Addr: a}); resp.Error != "" {
			t.Fatalf("add n%d: %s", i, resp.Error)
		}
	}
	d.Close()

	opts.Shards = 3
	d2, err := start(opts, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	resp := d2.srv.Handle(dcm.Request{Op: "nodes"})
	if len(resp.Nodes) != len(addrs) {
		t.Fatalf("restart with -shards 3 lists %d of %d nodes: %+v", len(resp.Nodes), len(addrs), resp.Nodes)
	}
	resp = d2.srv.Handle(dcm.Request{Op: "shards"})
	total := 0
	for _, sh := range resp.Shards {
		total += sh.Nodes
	}
	if len(resp.Shards) != 3 || total != len(addrs) {
		t.Fatalf("rebuilt ring: %d leaves owning %d of %d nodes", len(resp.Shards), total, len(addrs))
	}
	for i := range addrs {
		name := fmt.Sprintf("n%d", i)
		owner, ok := d2.shTree.Owner(name)
		if !ok {
			t.Fatalf("no owner for %s after the rebuild", name)
		}
		for j, mgr := range d2.shLeaves {
			for _, ns := range mgr.Nodes() {
				if ns.Name == name && leafName(j) != owner {
					t.Errorf("%s registered with %s but owned by %s", name, leafName(j), owner)
				}
			}
		}
	}
}

// TestShardedAggregatorLoop: with -aggregator the cascade runs without
// operator pushes; each leaf eventually reports its granted budget.
func TestShardedAggregatorLoop(t *testing.T) {
	addrs := startBMCs(t, 2)
	opts := shardedOpts("")
	opts.Budget = 400
	opts.Aggregator = 10 * time.Millisecond
	d, err := start(opts, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i, a := range addrs {
		if resp := d.srv.Handle(dcm.Request{Op: "add", Name: fmt.Sprintf("n%d", i), Addr: a}); resp.Error != "" {
			t.Fatalf("add n%d: %s", i, resp.Error)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := d.srv.Handle(dcm.Request{Op: "shards"})
		var granted float64
		for _, sh := range resp.Shards {
			granted += sh.BudgetWatts
		}
		if granted > 0 && granted <= 400+1e-6 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cascade never granted a budget: %+v", resp.Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardedFlagValidation: -shards refuses configurations whose
// semantics it cannot honour.
func TestShardedFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		opts options
	}{
		{"ha pair", options{Shards: 2, ReplicaAddr: "127.0.0.1:0", StateDir: t.TempDir(), Listen: "127.0.0.1:0", Poll: time.Hour}},
		{"group", options{Shards: 2, Group: "a,b", Listen: "127.0.0.1:0", Poll: time.Hour}},
		{"aggregator without budget", options{Shards: 2, Aggregator: time.Second, Listen: "127.0.0.1:0", Poll: time.Hour}},
		{"too many leaves", options{Shards: 100, Listen: "127.0.0.1:0", Poll: time.Hour}},
	}
	for _, tc := range cases {
		if d, err := start(tc.opts, nil, func(string, ...any) {}); err == nil {
			d.Close()
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestStartRejectsBadBudgetGroup: a -budget that is not a finite
// wattage, or a -group naming a node twice, fails start instead of
// failing every auto-balance or aggregator tick.
func TestStartRejectsBadBudgetGroup(t *testing.T) {
	cases := []struct {
		name string
		opts options
	}{
		{"NaN aggregator budget", options{Shards: 2, Aggregator: time.Second, Budget: math.NaN(), Listen: "127.0.0.1:0", Poll: time.Hour}},
		{"infinite group budget", options{Budget: math.Inf(1), Group: "a,b", Listen: "127.0.0.1:0", Poll: time.Hour, Rebalance: time.Hour}},
		{"duplicate group member", options{Budget: 300, Group: "a,b,a", Listen: "127.0.0.1:0", Poll: time.Hour, Rebalance: time.Hour}},
	}
	for _, tc := range cases {
		if d, err := start(tc.opts, nil, func(string, ...any) {}); err == nil {
			d.Close()
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

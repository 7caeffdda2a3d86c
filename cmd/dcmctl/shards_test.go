package main

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
	"nodecap/internal/machine"
	"nodecap/internal/nodeagent"
	"nodecap/internal/shard"
	"nodecap/internal/telemetry"
)

// shardedHarness brings up an in-process sharded daemon — leaf
// managers under an aggregator tree, served through the control-plane
// handler override — plus a fleet of simulated BMCs.
func shardedHarness(t *testing.T, leaves, nodes int) (serverAddr string, bmcs []string) {
	t.Helper()
	tree := shard.NewTree(1, 0, nil, "")
	reg, trace := telemetry.NewRegistry(), telemetry.NewTrace(256)
	for i := 0; i < leaves; i++ {
		mgr := dcm.NewManager(nil)
		mgr.SetTelemetry(reg, trace)
		t.Cleanup(mgr.Close)
		if _, err := tree.AddLeaf(fmt.Sprintf("leaf-%02d", i), mgr); err != nil {
			t.Fatal(err)
		}
	}
	srv := dcm.NewServer(tree)
	serverAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	bmcs = make([]string, nodes)
	for i := range bmcs {
		agent := nodeagent.New(machine.Romley(), nodeagent.Options{})
		t.Cleanup(agent.Stop)
		isrv := ipmi.NewServer(agent)
		addr, err := isrv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { isrv.Close() })
		bmcs[i] = addr
	}
	return serverAddr, bmcs
}

// TestViaServerShardedLifecycle: every dcmctl subcommand a sharded
// daemon supports, end to end over the wire.
func TestViaServerShardedLifecycle(t *testing.T) {
	server, bmcs := shardedHarness(t, 2, 3)
	steps := [][]string{
		{"add", "n0", bmcs[0]},
		{"add", "n1", bmcs[1]},
		{"add", "n2", bmcs[2]},
		{"poll"},
		{"nodes"},
		{"shards"},
		{"setcap", "n0", "140"},
		{"settier", "n1", "high"},
		{"budget", "400"}, // no group: the tree is the group
		{"history", "n0", "5"},
		{"trace"},
		{"leader"},
		{"uncap", "n0"},
		{"remove", "n2"},
	}
	for _, args := range steps {
		if err := viaServer(server, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

// TestShardedNodesAggregatesSorted: the "nodes" op against a sharded
// daemon merges every leaf's view into one name-sorted fleet listing —
// indistinguishable from a flat manager's, plus the aggregator role.
func TestShardedNodesAggregatesSorted(t *testing.T) {
	server, bmcs := shardedHarness(t, 2, 4)
	names := []string{"n3", "n0", "n2", "n1"} // added out of order
	for i, name := range names {
		resp, err := dcm.CallTimeout(server, dcm.Request{Op: "add", Name: name, Addr: bmcs[i]}, time.Minute)
		if err != nil || !resp.OK {
			t.Fatalf("add %s: %v %+v", name, err, resp)
		}
	}
	resp, err := dcm.CallTimeout(server, dcm.Request{Op: "nodes"}, time.Minute)
	if err != nil || !resp.OK {
		t.Fatalf("nodes: %v %+v", err, resp)
	}
	if resp.Role != shard.RoleAggregator {
		t.Errorf("role %q, want %q", resp.Role, shard.RoleAggregator)
	}
	if len(resp.Nodes) != len(names) {
		t.Fatalf("aggregate lists %d of %d nodes", len(resp.Nodes), len(names))
	}
	if !sort.SliceIsSorted(resp.Nodes, func(i, j int) bool { return resp.Nodes[i].Name < resp.Nodes[j].Name }) {
		t.Errorf("aggregate not sorted: %+v", resp.Nodes)
	}
}

// TestPrintShardsGolden: byte-stable output — rows sorted by leaf,
// fixed column widths — so shard listings diff cleanly in scripts.
func TestPrintShardsGolden(t *testing.T) {
	shards := []dcm.ShardStatus{ // deliberately out of order
		{Leaf: "leaf-01", Alive: false, Epoch: 4, Nodes: 0},
		{Leaf: "leaf-00", Alive: true, Epoch: 4, Nodes: 3, BudgetWatts: 512.5},
		{Leaf: "leaf-02", Alive: true, Epoch: 4, Nodes: 2, BudgetWatts: 80, Infeasible: true},
	}
	var got1, got2 bytes.Buffer
	printShards(&got1, shards)
	printShards(&got2, shards)
	if got1.String() != got2.String() {
		t.Fatal("printShards is not deterministic")
	}
	want := "" +
		"LEAF         ALIVE   EPOCH  NODES     BUDGET FEASIBLE\n" +
		"leaf-00      true        4      3    512.5 W yes\n" +
		"leaf-01      false       4      0          - yes\n" +
		"leaf-02      true        4      2     80.0 W pinned-min\n"
	if got1.String() != want {
		t.Errorf("printShards output changed:\ngot:\n%s\nwant:\n%s", got1.String(), want)
	}
}

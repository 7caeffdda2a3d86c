package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// randomState draws a shard map: a few leaves, up to a few hundred
// nodes with names of uneven length (so name order is not insertion or
// numeric order), every scalar set.
func randomState(rng *rand.Rand) TreeState {
	st := TreeState{
		Seed:       rng.Uint64(),
		Vnodes:     1 + rng.Intn(64),
		Epoch:      1 + uint64(rng.Intn(1000)),
		Rebalances: uint64(rng.Intn(1000)),
		Budget:     rng.Float64() * 1e6,
		Infeasible: rng.Intn(2) == 0,
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		st.Leaves = append(st.Leaves, LeafRecord{
			Name: fmt.Sprintf("leaf-%d", i), Budget: rng.Float64() * 1e5, Infeasible: rng.Intn(2) == 0,
		})
	}
	if len(st.Leaves) == 0 {
		return st
	}
	for i, n := 0, rng.Intn(300); i < n; i++ {
		st.Nodes = append(st.Nodes, NodeRecord{
			Name:  fmt.Sprintf("n%d", rng.Intn(1_000_000)*1000+i), // unique, unevenly long
			Addr:  fmt.Sprintf("10.%d.%d.%d:623", rng.Intn(256), rng.Intn(256), rng.Intn(256)),
			Owner: st.Leaves[rng.Intn(len(st.Leaves))].Name,
			ID:    rng.Uint32(),
		})
	}
	return st
}

// assertEncodesLikeState is the differential check: the tree's direct
// encoder, writing over whatever its buffer held before, gives the
// bytes of EncodeSnapshot(t.State()).
func assertEncodesLikeState(t *testing.T, tree *Tree, when string) {
	t.Helper()
	want, err := EncodeSnapshot(tree.State())
	if err != nil {
		t.Fatalf("%s: EncodeSnapshot: %v", when, err)
	}
	tree.mu.Lock()
	got, err := tree.encode(tree.snapBuf[:0])
	tree.snapBuf = got
	tree.mu.Unlock()
	if err != nil {
		t.Fatalf("%s: encode: %v", when, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the tree encodes %d bytes that differ from EncodeSnapshot(State())'s %d", when, len(got), len(want))
	}
}

func TestTreeEncodeMatchesEncodeSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var buf []byte // carried from tree to tree: stale bytes must not leak
	for i := 0; i < 200; i++ {
		st := randomState(rng)
		tree, err := NewTreeFromState(st, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		tree.snapBuf = buf
		assertEncodesLikeState(t, tree, fmt.Sprint("random tree ", i))
		buf = tree.snapBuf
	}
}

// TestPersistFollowsMembership walks a live tree through every kind of
// change and checks, after each, the cached name order, the direct
// encoder and the bytes on disk against the state.
func TestPersistFollowsMembership(t *testing.T) {
	e := newEnv(t, []string{"leaf-a", "leaf-b", "leaf-c"}, 24)
	e.tree.snapPath = filepath.Join(t.TempDir(), "shardmap.snap")
	check := func(when string) {
		t.Helper()
		assertEncodesLikeState(t, e.tree, when)
		st := e.tree.State()
		for i := 1; i < len(st.Nodes); i++ {
			if st.Nodes[i-1].Name >= st.Nodes[i].Name {
				t.Fatalf("%s: state nodes out of order at %d", when, i)
			}
		}
		if len(st.Nodes) != len(e.tree.nodes) {
			t.Fatalf("%s: state lists %d nodes, the tree holds %d", when, len(st.Nodes), len(e.tree.nodes))
		}
		want, _ := EncodeSnapshot(st)
		if got, err := os.ReadFile(e.tree.snapPath); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot file (%v) differs from the state's encoding", when, err)
		}
	}

	if _, err := e.tree.Rebalance(24 * 150); err != nil {
		t.Fatal(err)
	}
	check("after a rebalance")
	e.plant.addNode("10.0.1.1:623", 101, 80, 200, 120)
	if err := e.tree.AddNode("node-007", "10.0.1.1:623", 101); err != nil { // sorts between node-00 and node-01
		t.Fatal(err)
	}
	check("after AddNode")
	if err := e.tree.RemoveNode("node-03"); err != nil {
		t.Fatal(err)
	}
	check("after RemoveNode")
	var batch []NodeInfo
	for i := 0; i < 5; i++ {
		addr := fmt.Sprintf("10.0.2.%d:623", i+1)
		e.plant.addNode(addr, uint32(200+i), 80, 200, 120)
		batch = append(batch, NodeInfo{Name: fmt.Sprintf("extra-%d", i), Addr: addr, ID: uint32(200 + i)})
	}
	if err := e.tree.AddNodes(batch); err != nil {
		t.Fatal(err)
	}
	check("after AddNodes")
	if _, err := e.tree.Seize("leaf-b"); err != nil {
		t.Fatal(err)
	}
	check("after Seize")
	if _, err := e.tree.Rebalance(20 * 140); err != nil {
		t.Fatal(err)
	}
	check("after a second rebalance")
}

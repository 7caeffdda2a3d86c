package shard

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
	"nodecap/internal/telemetry"
)

// env is one assembled two-level control plane over an in-process
// plant: a tree, its leaves, and the node population.
type env struct {
	t     *testing.T
	plant *plant
	clock *fakeClock
	tree  *Tree
	mgrs  map[string]*dcm.Manager
	nodes map[string]*plantNode // node name -> plant endpoint
	addrs map[string]string     // node name -> addr
	ids   map[string]uint32     // node name -> ring id
}

func newEnv(t *testing.T, leaves []string, nodes int) *env {
	t.Helper()
	e := &env{
		t:     t,
		plant: newPlant(),
		clock: newFakeClock(),
		mgrs:  make(map[string]*dcm.Manager),
		nodes: make(map[string]*plantNode),
		addrs: make(map[string]string),
		ids:   make(map[string]uint32),
	}
	e.tree = NewTree(7, 16, &muxTransport{mux: e.plant.mux}, "")
	for _, name := range leaves {
		mgr := newLeafMgr(e.plant, e.clock)
		e.mgrs[name] = mgr
		if _, err := e.tree.AddLeaf(name, mgr); err != nil {
			t.Fatalf("AddLeaf(%s): %v", name, err)
		}
	}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node-%02d", i)
		addr := fmt.Sprintf("10.0.0.%d:623", i+1)
		id := uint32(i + 1)
		e.nodes[name] = e.plant.addNode(addr, id, 80, 200, 120)
		e.addrs[name] = addr
		e.ids[name] = id
		if err := e.tree.AddNode(name, addr, id); err != nil {
			t.Fatalf("AddNode(%s): %v", name, err)
		}
	}
	e.pollAll()
	return e
}

func (e *env) pollAll() {
	for _, name := range e.tree.Leaves() {
		if mgr := e.tree.Leaf(name); mgr != nil {
			mgr.Poll()
		}
	}
}

// attachedMinSum sums platform minimums over every node registered
// with an attached leaf — the infeasible-case conservation bound.
func (e *env) attachedMinSum() float64 {
	var sum float64
	for _, name := range e.tree.Leaves() {
		mgr := e.tree.Leaf(name)
		if mgr == nil {
			continue
		}
		for _, n := range mgr.Nodes() {
			sum += n.MinCapWatts
		}
	}
	return sum
}

// assertTreeBudgetConserved is the test-side statement of the
// tree_budget_conserved invariant: the sum of enabled desired caps
// across attached leaves never exceeds the datacenter budget — or the
// platform-minimum floor when the budget is infeasible.
func (e *env) assertTreeBudgetConserved(budget float64) {
	e.t.Helper()
	const tol = 1e-6
	bound := budget
	if e.tree.Infeasible() {
		bound = e.attachedMinSum()
	}
	if sum := e.tree.DesiredSum(); sum > bound+tol {
		e.t.Fatalf("tree_budget_conserved violated: desired sum %.6f > bound %.6f (budget %.1f, infeasible %v)",
			sum, bound, budget, e.tree.Infeasible())
	}
}

// assertSingleOwner checks that every tree node is registered with
// exactly one attached leaf manager.
func (e *env) assertSingleOwner() {
	e.t.Helper()
	seen := make(map[string]string)
	for _, leaf := range e.tree.Leaves() {
		mgr := e.tree.Leaf(leaf)
		if mgr == nil {
			continue
		}
		for _, n := range mgr.Nodes() {
			if prev, dup := seen[n.Name]; dup {
				e.t.Fatalf("node %s registered with both %s and %s", n.Name, prev, leaf)
			}
			seen[n.Name] = leaf
		}
	}
	for name := range e.nodes {
		if owner, ok := e.tree.Owner(name); ok {
			if got := seen[name]; got != owner {
				e.t.Fatalf("node %s: tree owner %s, registered with %q", name, owner, got)
			}
		}
	}
}

// ownedBy lists the node names the tree assigns to leaf, sorted.
func (e *env) ownedBy(leaf string) []string {
	var out []string
	for name := range e.nodes {
		if owner, ok := e.tree.Owner(name); ok && owner == leaf {
			out = append(out, name)
		}
	}
	return out
}

func TestTreeOwnershipMatchesRingAndLeaves(t *testing.T) {
	e := newEnv(t, []string{"leaf-a", "leaf-b", "leaf-c"}, 9)
	e.assertSingleOwner()
	total := 0
	for _, leaf := range e.tree.Leaves() {
		total += len(e.ownedBy(leaf))
	}
	if total != 9 {
		t.Fatalf("owned nodes = %d, want 9", total)
	}
	if got := e.tree.Epoch(); got != 1 {
		t.Fatalf("epoch after assembly = %d, want 1 (no handoffs yet)", got)
	}
}

// TestBudgetCascadeEdgeCases is the table the ISSUE asks for: every
// edge case ends with the tree_budget_conserved assertion.
func TestBudgetCascadeEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		leaves         []string
		nodes          int
		budget         float64
		prep           func(e *env)
		wantInfeasible bool
		allowApplyErr  bool
		check          func(e *env, res CascadeResult)
	}{
		{
			name:   "feasible-three-leaves",
			leaves: []string{"leaf-a", "leaf-b", "leaf-c"},
			nodes:  6, budget: 900,
			check: func(e *env, res CascadeResult) {
				var granted float64
				for _, g := range res.Leaves {
					granted += g
				}
				if granted > 900+1e-6 {
					e.t.Fatalf("granted %.3f > budget 900", granted)
				}
			},
		},
		{
			name:   "budget-below-shard-minimums",
			leaves: []string{"leaf-a", "leaf-b", "leaf-c"},
			nodes:  6, budget: 300, // Σ min = 6×80 = 480
			wantInfeasible: true,
			check: func(e *env, res CascadeResult) {
				// Pinned to minimums: each leaf's grant is exactly its
				// nodes' platform-minimum sum.
				for _, leaf := range e.tree.Leaves() {
					var minSum float64
					for _, n := range e.tree.Leaf(leaf).Nodes() {
						minSum += n.MinCapWatts
					}
					if g := res.Leaves[leaf]; g != minSum {
						e.t.Fatalf("leaf %s grant %.3f, want pinned minimum %.3f", leaf, g, minSum)
					}
				}
			},
		},
		{
			name:   "empty-shard",
			leaves: []string{"leaf-a", "leaf-b", "leaf-c"},
			nodes:  1, budget: 400,
			check: func(e *env, res CascadeResult) {
				empties := 0
				for _, leaf := range e.tree.Leaves() {
					if len(e.ownedBy(leaf)) == 0 {
						empties++
						if g := res.Leaves[leaf]; g != 0 {
							e.t.Fatalf("empty leaf %s granted %.3f, want 0", leaf, g)
						}
					}
				}
				if empties == 0 {
					e.t.Fatal("fixture error: 1 node over 3 leaves left no shard empty")
				}
			},
		},
		{
			name:   "all-leaves-stale",
			leaves: []string{"leaf-a", "leaf-b"},
			nodes:  4, budget: 700,
			prep: func(e *env) {
				e.plant.setDown(true)
				e.pollAll() // marks every node unreachable
				e.clock.advance(2 * time.Millisecond)
			},
			allowApplyErr: true,
			check: func(e *env, res CascadeResult) {
				// Stale nodes are pinned to their minimums by each leaf's
				// allocator; the desired sum collapses to the floor.
				const wantSum = 4 * 80.0
				if sum := e.tree.DesiredSum(); math.Abs(sum-wantSum) > 1e-6 {
					e.t.Fatalf("stale desired sum %.3f, want %.3f", sum, wantSum)
				}
			},
		},
		{
			name:   "leaf-rejoining-mid-epoch",
			leaves: []string{"leaf-a", "leaf-b", "leaf-c"},
			nodes:  6, budget: 900,
			prep: func(e *env) {
				if _, err := e.tree.Rebalance(900); err != nil {
					e.t.Fatalf("initial rebalance: %v", err)
				}
				if _, err := e.tree.Seize("leaf-c"); err != nil {
					e.t.Fatalf("seize: %v", err)
				}
				if _, err := e.tree.Rebalance(900); err != nil {
					e.t.Fatalf("mid-epoch rebalance: %v", err)
				}
				// The leaf returns with a fresh (restarted) manager while
				// the epoch has moved on underneath it.
				if _, err := e.tree.Rejoin("leaf-c", newLeafMgr(e.plant, e.clock)); err != nil {
					e.t.Fatalf("rejoin: %v", err)
				}
				e.pollAll()
			},
			check: func(e *env, res CascadeResult) {
				e.assertSingleOwner()
				if len(e.ownedBy("leaf-c")) == 0 {
					e.t.Fatal("rejoined leaf owns no nodes")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, tc.leaves, tc.nodes)
			if tc.prep != nil {
				tc.prep(e)
			}
			res, err := e.tree.Rebalance(tc.budget)
			if err != nil && !tc.allowApplyErr {
				t.Fatalf("Rebalance: %v", err)
			}
			if res.Infeasible != tc.wantInfeasible {
				t.Fatalf("Infeasible = %v, want %v", res.Infeasible, tc.wantInfeasible)
			}
			e.assertTreeBudgetConserved(tc.budget)
			if tc.check != nil {
				tc.check(e, res)
			}
		})
	}
}

// TestCascadeWideTrees pins the regression where the synthetic
// row/rack levels, since removed, indexed past the single root grant
// for trees with 9+ leaves. The division must hold its shape — one
// grant per leaf, conservation, the min floor — at every width the
// daemon accepts (-shards goes to 99).
func TestCascadeWideTrees(t *testing.T) {
	const budget = 10_000.0
	for n := 1; n <= 99; n++ {
		leaves := make([]demandSummary, n)
		var minSum float64
		for i := range leaves {
			leaves[i] = demandSummary{
				min:  40 + float64(i%7)*10,
				want: 90 + float64(i%13)*15,
				max:  200 + float64(i%5)*25,
			}
			minSum += leaves[i].min
		}
		grants, _ := divide(budget, leaves)
		if len(grants) != n {
			t.Fatalf("division over %d leaves returned %d grants", n, len(grants))
		}
		var sum float64
		for i, g := range grants {
			if g < leaves[i].min-1e-6 {
				t.Fatalf("%d leaves: grant[%d] = %.3f below min %.3f", n, i, g, leaves[i].min)
			}
			sum += g
		}
		if bound := math.Max(budget, minSum); sum > bound+1e-6 {
			t.Fatalf("%d leaves: granted %.3f > bound %.3f", n, sum, bound)
		}
	}
}

// TestRebalanceNineLeaves drives the 9+-shard rebalance end-to-end —
// the call that crashed the aggregator before the cascade fix.
func TestRebalanceNineLeaves(t *testing.T) {
	leaves := make([]string, 9)
	for i := range leaves {
		leaves[i] = fmt.Sprintf("leaf-%02d", i)
	}
	e := newEnv(t, leaves, 27)
	res, err := e.tree.Rebalance(4000)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if len(res.Leaves) != 9 {
		t.Fatalf("rebalance granted %d leaves, want 9", len(res.Leaves))
	}
	e.assertTreeBudgetConserved(4000)
}

// TestSeizeBeforeAttachDefersRegistration pins the restore-flow
// nil-dereference: seizing a dead leaf before the survivors are
// re-attached hands nodes to unattached destinations. The handoff must
// move ownership without touching the nil managers, and Attach must
// reconcile the deferred nodes into the manager it binds.
func TestSeizeBeforeAttachDefersRegistration(t *testing.T) {
	e := newEnv(t, []string{"leaf-a", "leaf-b", "leaf-c"}, 9)
	if _, err := e.tree.Rebalance(1500); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	st := e.tree.State()

	restored, err := NewTreeFromState(st, &muxTransport{mux: e.plant.mux}, "")
	if err != nil {
		t.Fatalf("NewTreeFromState: %v", err)
	}
	lost := e.ownedBy("leaf-a")
	if len(lost) == 0 {
		t.Fatal("fixture error: leaf-a owns no nodes before seize")
	}
	// Seize the casualty while every survivor is still unattached: the
	// move is deferred, not a panic — and the deferral is reported.
	moved, err := restored.Seize("leaf-a")
	if err == nil {
		t.Fatal("Seize with unattached destinations reported no deferral")
	}
	if moved != len(lost) {
		t.Fatalf("Seize moved %d nodes, want %d", moved, len(lost))
	}
	for _, name := range lost {
		owner, ok := restored.Owner(name)
		if !ok || (owner != "leaf-b" && owner != "leaf-c") {
			t.Fatalf("node %s owner after seize = %q", name, owner)
		}
	}

	// Attach heals the deferral: every owned node registers with the
	// manager the leaf binds.
	for _, leaf := range []string{"leaf-b", "leaf-c"} {
		if err := restored.Attach(leaf, e.mgrs[leaf]); err != nil {
			t.Fatalf("Attach(%s): %v", leaf, err)
		}
		mgr := restored.Leaf(leaf)
		known := make(map[string]bool)
		for _, n := range mgr.Nodes() {
			known[n.Name] = true
		}
		for name := range e.nodes {
			if owner, _ := restored.Owner(name); owner == leaf && !known[name] {
				t.Fatalf("node %s owned by %s but not registered after Attach", name, leaf)
			}
		}
	}
}

// TestAddNodesPersistsPartialBatch pins the crash-window fix: a batch
// that fails partway must persist the nodes it already registered, so
// an aggregator restart does not silently drop them from the map.
func TestAddNodesPersistsPartialBatch(t *testing.T) {
	dir := t.TempDir()
	path := SnapshotPathIn(dir)
	plant := newPlant()
	clock := newFakeClock()
	tree := NewTree(11, 8, &muxTransport{mux: plant.mux}, path)
	for _, leaf := range []string{"l0", "l1"} {
		if _, err := tree.AddLeaf(leaf, newLeafMgr(plant, clock)); err != nil {
			t.Fatalf("AddLeaf: %v", err)
		}
	}
	plant.addNode("10.2.0.1:623", 1, 60, 150, 90)
	err := tree.AddNodes([]NodeInfo{
		{Name: "n0", Addr: "10.2.0.1:623", ID: 1},
		{Name: "n1", Addr: "10.2.0.99:623", ID: 2}, // unknown addr: dial fails
	})
	if err == nil {
		t.Fatal("AddNodes with an unreachable node reported no error")
	}
	st, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot after partial batch: %v", err)
	}
	found := false
	for _, n := range st.Nodes {
		if n.Name == "n0" {
			found = true
		}
	}
	if !found {
		t.Fatal("partial batch not persisted: n0 absent from the snapshot")
	}
}

func TestHandoffFencesDeposedLeaf(t *testing.T) {
	e := newEnv(t, []string{"leaf-a", "leaf-b"}, 8)
	if _, err := e.tree.Rebalance(1200); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	moved := e.ownedBy("leaf-b")
	if len(moved) == 0 {
		t.Fatal("fixture error: leaf-b owns no nodes before seize")
	}
	deposed := e.mgrs["leaf-b"]
	epochBefore := e.tree.Epoch()

	n, err := e.tree.Seize("leaf-b")
	if err != nil {
		t.Fatalf("Seize: %v", err)
	}
	if n != len(moved) {
		t.Fatalf("Seize moved %d nodes, want %d", n, len(moved))
	}
	if got := e.tree.Epoch(); got != epochBefore+1 {
		t.Fatalf("epoch after seize = %d, want %d", got, epochBefore+1)
	}
	e.assertSingleOwner()

	// The deposed leaf still thinks it owns its nodes; the plant must
	// refuse its pushes from the moment the handoff completed.
	victim := moved[0]
	limitBefore := e.nodes[victim].PowerLimit()
	if err := deposed.SetNodeCap(victim, 155); !errors.Is(err, ipmi.ErrStaleEpoch) {
		t.Fatalf("deposed push error = %v, want ErrStaleEpoch", err)
	}
	if got := e.nodes[victim].PowerLimit(); got != limitBefore {
		t.Fatalf("deposed push changed the plant limit: %+v -> %+v", limitBefore, got)
	}

	// The new owner's push lands.
	newOwner, _ := e.tree.Owner(victim)
	if err := e.tree.Leaf(newOwner).SetNodeCap(victim, 155); err != nil {
		t.Fatalf("new owner push: %v", err)
	}
	if got := e.nodes[victim].PowerLimit(); !got.Enabled || got.CapWatts != 155 {
		t.Fatalf("new owner push not applied: %+v", got)
	}
	e.assertTreeBudgetConserved(1200)
}

func TestBreakHandoffAdmitsDualWriters(t *testing.T) {
	e := newEnv(t, []string{"leaf-a", "leaf-b"}, 8)
	e.tree.BreakHandoff = true
	if _, err := e.tree.Rebalance(1200); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	moved := e.ownedBy("leaf-b")
	if len(moved) == 0 {
		t.Fatal("fixture error: leaf-b owns no nodes before seize")
	}
	deposed := e.mgrs["leaf-b"]
	epochBefore := e.tree.Epoch()
	if _, err := e.tree.Seize("leaf-b"); err != nil {
		t.Fatalf("Seize: %v", err)
	}
	if got := e.tree.Epoch(); got != epochBefore {
		t.Fatalf("broken handoff bumped the epoch: %d -> %d", epochBefore, got)
	}
	// With the bump sabotaged, the plant admits the deposed writer —
	// the dual-writer hazard single_owner exists to catch.
	if err := deposed.SetNodeCap(moved[0], 155); err != nil {
		t.Fatalf("deposed push unexpectedly rejected: %v", err)
	}
	if got := e.nodes[moved[0]].PowerLimit(); !got.Enabled || got.CapWatts != 155 {
		t.Fatalf("deposed push not applied under -break-handoff: %+v", got)
	}
}

func TestAggregatorRestartFromSnapshot(t *testing.T) {
	e := newEnv(t, []string{"leaf-a", "leaf-b", "leaf-c"}, 6)
	if _, err := e.tree.Rebalance(900); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	st := e.tree.State()

	restored, err := NewTreeFromState(st, &muxTransport{mux: e.plant.mux}, "")
	if err != nil {
		t.Fatalf("NewTreeFromState: %v", err)
	}
	if restored.Epoch() != st.Epoch {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), st.Epoch)
	}
	// Ownership survives the restart byte-for-byte.
	for _, n := range st.Nodes {
		owner, ok := restored.Owner(n.Name)
		if !ok || owner != n.Owner {
			t.Fatalf("restored owner of %s = %q, want %q", n.Name, owner, n.Owner)
		}
	}
	// leaf-a and leaf-b survived the aggregator crash; leaf-c died with
	// it. Re-bind the survivors, seize the casualty.
	for _, name := range []string{"leaf-a", "leaf-b"} {
		if err := restored.Attach(name, e.mgrs[name]); err != nil {
			t.Fatalf("Attach(%s): %v", name, err)
		}
	}
	if _, err := restored.Seize("leaf-c"); err != nil {
		t.Fatalf("Seize: %v", err)
	}
	if restored.Epoch() <= st.Epoch {
		t.Fatalf("seize after restore did not advance the epoch: %d", restored.Epoch())
	}
	for name := range e.nodes {
		owner, ok := restored.Owner(name)
		if !ok || (owner != "leaf-a" && owner != "leaf-b") {
			t.Fatalf("node %s owner after seize = %q", name, owner)
		}
	}
	// The dead leaf's manager — if it were still running somewhere —
	// is fenced out by the post-restart epoch.
	var lost string
	for name := range e.nodes {
		if owner, _ := e.tree.Owner(name); owner == "leaf-c" {
			lost = name
			break
		}
	}
	if lost != "" {
		if err := e.mgrs["leaf-c"].SetNodeCap(lost, 140); !errors.Is(err, ipmi.ErrStaleEpoch) {
			t.Fatalf("dead leaf push error = %v, want ErrStaleEpoch", err)
		}
	}
}

// TestRebind drives the aggregator-restart procedure dcmd and the chaos
// harness share through each of its branches.
func TestRebind(t *testing.T) {
	leaves := []string{"leaf-a", "leaf-b", "leaf-c"}
	cases := []struct {
		name string
		// prepare wedges the managers apart from the snapshotted map and
		// returns the live set handed to Rebind.
		prepare   func(e *env) map[string]*dcm.Manager
		wantErr   bool
		wantMoved func(e *env) int
		wantBumps uint64
		check     func(t *testing.T, e *env, st TreeState)
	}{
		{
			name:    "every leaf live",
			prepare: func(e *env) map[string]*dcm.Manager { return e.mgrs },
			check: func(t *testing.T, e *env, st TreeState) {
				for _, n := range st.Nodes {
					if owner, _ := e.tree.Owner(n.Name); owner != n.Owner {
						t.Errorf("owner of %s = %q, snapshot says %q", n.Name, owner, n.Owner)
					}
				}
			},
		},
		{
			name: "member with no live manager is seized after the survivors attach",
			prepare: func(e *env) map[string]*dcm.Manager {
				return map[string]*dcm.Manager{"leaf-a": e.mgrs["leaf-a"], "leaf-b": e.mgrs["leaf-b"]}
			},
			wantMoved: func(e *env) int { return len(e.ownedBy("leaf-c")) },
			wantBumps: 1,
			check: func(t *testing.T, e *env, st TreeState) {
				// A seize ahead of the attaches would have deferred the
				// registrations with an error; none was reported, and every
				// node is registered with the survivor that owns it.
				if got := e.tree.Leaves(); len(got) != 2 || got[0] != "leaf-a" || got[1] != "leaf-b" {
					t.Errorf("members after rebind = %v", got)
				}
			},
		},
		{
			name: "map-owned node missing from its owner's manager",
			prepare: func(e *env) map[string]*dcm.Manager {
				owner, _ := e.tree.Owner("node-00")
				if err := e.mgrs[owner].RemoveNode("node-00"); err != nil {
					e.t.Fatal(err)
				}
				return e.mgrs
			},
		},
		{
			name: "node a live manager knows but the map does not",
			prepare: func(e *env) map[string]*dcm.Manager {
				e.nodes["stray"] = e.plant.addNode("10.0.9.9:623", NodeID("stray"), 80, 200, 120)
				if err := e.mgrs["leaf-a"].AddNode("stray", "10.0.9.9:623"); err != nil {
					e.t.Fatal(err)
				}
				return e.mgrs
			},
			check: func(t *testing.T, e *env, st TreeState) {
				if _, ok := e.tree.Owner("stray"); !ok {
					t.Error("journal-only node was not re-routed through the ring")
				}
			},
		},
		{
			name: "live names a leaf the snapshot lacks",
			prepare: func(e *env) map[string]*dcm.Manager {
				live := map[string]*dcm.Manager{"leaf-z": newLeafMgr(e.plant, e.clock)}
				for name, mgr := range e.mgrs {
					live[name] = mgr
				}
				return live
			},
			check: func(t *testing.T, e *env, st TreeState) {
				if got := e.tree.Leaves(); len(got) != len(leaves) {
					t.Errorf("members after rebind = %v", got)
				}
			},
		},
		{
			name: "bind failure aborts",
			prepare: func(e *env) map[string]*dcm.Manager {
				return map[string]*dcm.Manager{"leaf-a": nil, "leaf-b": e.mgrs["leaf-b"], "leaf-c": e.mgrs["leaf-c"]}
			},
			wantErr: true,
			check: func(t *testing.T, e *env, st TreeState) {
				for _, leaf := range leaves {
					if e.tree.Leaf(leaf) != nil {
						t.Errorf("%s attached after an aborted rebind", leaf)
					}
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, leaves, 9)
			if _, err := e.tree.Rebalance(1500); err != nil {
				t.Fatalf("rebalance: %v", err)
			}
			st := e.tree.State()
			live := c.prepare(e)
			var wantMoved int
			if c.wantMoved != nil {
				wantMoved = c.wantMoved(e)
			}

			restored, err := NewTreeFromState(st, &muxTransport{mux: e.plant.mux}, "")
			if err != nil {
				t.Fatalf("NewTreeFromState: %v", err)
			}
			trace := telemetry.NewTrace(64)
			restored.SetTelemetry(trace)
			moved, err := restored.Rebind(live)
			if (err != nil) != c.wantErr {
				t.Fatalf("Rebind error = %v, want error %v", err, c.wantErr)
			}
			if moved != wantMoved {
				t.Errorf("Rebind moved %d nodes, want %d", moved, wantMoved)
			}
			if got := restored.Epoch() - st.Epoch; got != c.wantBumps {
				t.Errorf("epoch advanced by %d, want %d", got, c.wantBumps)
			}
			if got := trace.Total(); got != uint64(wantMoved) {
				t.Errorf("%d handoff events, want %d", got, wantMoved)
			}
			e.tree = restored
			if !c.wantErr {
				e.assertSingleOwner()
			}
			if c.check != nil {
				c.check(t, e, st)
			}
		})
	}
}

func TestSnapshotPersistAndLoad(t *testing.T) {
	dir := t.TempDir()
	path := SnapshotPathIn(dir)
	plant := newPlant()
	clock := newFakeClock()
	tree := NewTree(11, 8, &muxTransport{mux: plant.mux}, path)
	for _, leaf := range []string{"l0", "l1"} {
		if _, err := tree.AddLeaf(leaf, newLeafMgr(plant, clock)); err != nil {
			t.Fatalf("AddLeaf: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		addr := fmt.Sprintf("10.1.0.%d:623", i+1)
		plant.addNode(addr, uint32(i+1), 60, 150, 90)
		if err := tree.AddNode(fmt.Sprintf("n%d", i), addr, uint32(i+1)); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
	}
	if _, err := tree.Rebalance(500); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	st, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	want := tree.State()
	a, _ := EncodeSnapshot(st)
	b, _ := EncodeSnapshot(want)
	if string(a) != string(b) {
		t.Fatal("persisted snapshot disagrees with live state")
	}
}

func TestHandleControlRoutesAcrossLeaves(t *testing.T) {
	e := newEnv(t, []string{"leaf-a", "leaf-b"}, 6)

	resp := e.tree.HandleControl(dcm.Request{Op: "nodes"})
	if !resp.OK || resp.Role != RoleAggregator {
		t.Fatalf("nodes resp: %+v", resp)
	}
	if len(resp.Nodes) != 6 {
		t.Fatalf("nodes merged %d entries, want 6", len(resp.Nodes))
	}
	for i := 1; i < len(resp.Nodes); i++ {
		if resp.Nodes[i-1].Name >= resp.Nodes[i].Name {
			t.Fatalf("merged nodes not sorted at %d: %s >= %s", i, resp.Nodes[i-1].Name, resp.Nodes[i].Name)
		}
	}

	// add: a node the control plane names; the tree hashes the ID.
	addr := "10.0.0.99:623"
	e.plant.addNode(addr, uint32(fnv64a("node-99")), 80, 200, 110)
	if resp := e.tree.HandleControl(dcm.Request{Op: "add", Name: "node-99", Addr: addr}); !resp.OK {
		t.Fatalf("add resp: %+v", resp)
	}
	if _, ok := e.tree.Owner("node-99"); !ok {
		t.Fatal("added node has no owner")
	}

	// setcap routes to the owning leaf.
	if resp := e.tree.HandleControl(dcm.Request{Op: "setcap", Name: "node-99", Cap: 130}); !resp.OK {
		t.Fatalf("setcap resp: %+v", resp)
	}
	owner, _ := e.tree.Owner("node-99")
	var found bool
	for _, n := range e.tree.Leaf(owner).Nodes() {
		if n.Name == "node-99" && n.CapWatts == 130 {
			found = true
		}
	}
	if !found {
		t.Fatal("setcap did not reach the owning leaf")
	}

	// budget cascades; allocations come back sorted by leaf.
	resp = e.tree.HandleControl(dcm.Request{Op: "budget", Budget: 1000})
	if !resp.OK || len(resp.Allocs) != 2 {
		t.Fatalf("budget resp: %+v", resp)
	}
	if resp.Allocs[0].Name != "leaf-a" || resp.Allocs[1].Name != "leaf-b" {
		t.Fatalf("allocs not sorted by leaf: %+v", resp.Allocs)
	}

	resp = e.tree.HandleControl(dcm.Request{Op: "shards"})
	if !resp.OK || len(resp.Shards) != 2 {
		t.Fatalf("shards resp: %+v", resp)
	}
	if !resp.Shards[0].Alive || resp.Shards[0].Leaf != "leaf-a" {
		t.Fatalf("shards[0]: %+v", resp.Shards[0])
	}

	// trace answers from any attached leaf (dcmd shares one ring).
	if resp := e.tree.HandleControl(dcm.Request{Op: "trace"}); !resp.OK {
		t.Fatalf("trace resp: %+v", resp)
	}

	if resp := e.tree.HandleControl(dcm.Request{Op: "no-such-op"}); resp.OK || resp.Error == "" {
		t.Fatalf("unsupported op should fail: %+v", resp)
	}
}

// TestServerRefusesStaleClientEpochOnTree is the sharded half of dcm's
// TestServerHAFields: dcm.Server checks a mutating request's client
// epoch ahead of Control.HandleControl, so a tree refuses what a flat
// manager refuses.
func TestServerRefusesStaleClientEpochOnTree(t *testing.T) {
	e := newEnv(t, []string{"leaf-a", "leaf-b"}, 4)
	srv := dcm.NewServer(e.tree)
	cur := e.tree.Epoch()
	add := func(name string) dcm.Request {
		addr := name + ":623"
		e.plant.addNode(addr, NodeID(name), 80, 200, 110)
		return dcm.Request{Op: "add", Name: name, Addr: addr}
	}
	// Per op: the request a stale client sends, then an epochless and a
	// current-epoch one.
	for _, reqs := range [][3]dcm.Request{
		{add("node-97"), add("node-98"), add("node-99")},
		{{Op: "setcap", Name: "node-00", Cap: 130}, {Op: "setcap", Name: "node-00", Cap: 135}, {Op: "setcap", Name: "node-00", Cap: 140}},
		{{Op: "budget", Budget: 600}, {Op: "budget", Budget: 650}, {Op: "budget", Budget: 700}},
	} {
		stale, legacy, current := reqs[0], reqs[1], reqs[2]
		stale.Epoch, current.Epoch = cur+1, cur
		if r := srv.Handle(stale); r.OK || !strings.Contains(r.Error, "stale client epoch") {
			t.Errorf("stale-epoch %s = %+v", stale.Op, r)
		}
		if r := srv.Handle(legacy); !r.OK {
			t.Errorf("epochless %s = %+v", legacy.Op, r)
		}
		if r := srv.Handle(current); !r.OK {
			t.Errorf("current-epoch %s = %+v", current.Op, r)
		}
	}
	if _, ok := e.tree.Owner("node-97"); ok {
		t.Error("stale-epoch add reached the tree")
	}
	// Reads are never epoch-gated.
	for _, op := range []string{"nodes", "shards", "leader"} {
		if r := srv.Handle(dcm.Request{Op: op, Epoch: cur + 1}); !r.OK {
			t.Errorf("stale-epoch %s refused: %+v", op, r)
		}
	}
}

// TestRebalanceRejectsNonFiniteBudget: a NaN budget used to divide into
// NaN leaf grants, which the shards control response cannot encode.
func TestRebalanceRejectsNonFiniteBudget(t *testing.T) {
	e := newEnv(t, []string{"leaf-a", "leaf-b"}, 4)
	for _, budget := range []float64{math.NaN(), math.Inf(1)} {
		if res, err := e.tree.Rebalance(budget); err == nil {
			t.Errorf("Rebalance(%v) accepted: %+v", budget, res.Leaves)
		}
	}
	if sum := e.tree.DesiredSum(); sum != 0 {
		t.Errorf("refused budget still pushed caps summing to %v W", sum)
	}
}

// TestRebalanceEqualSummariesEqualGrants: a leaf's grant is a function
// of its own demand summary, not of which leaf sits beside it. The
// synthetic rack level this replaced paired leaf-00 with leaf-01, and
// leaf-00's demand above its platform maximum was lent to its partner
// alone, so leaf-01 and leaf-02 — identical summaries — got different
// grants.
func TestRebalanceEqualSummariesEqualGrants(t *testing.T) {
	e := newEnv(t, []string{"leaf-00", "leaf-01", "leaf-02", "leaf-03"}, 24)
	for _, name := range e.ownedBy("leaf-00") {
		e.nodes[name].mu.Lock()
		e.nodes[name].watts = 199
		e.nodes[name].mu.Unlock()
	}
	e.pollAll()
	type summary struct{ min, want, max float64 }
	sums := make(map[string]summary)
	for _, leaf := range e.tree.Leaves() {
		var s summary
		s.min, s.want, s.max = e.tree.Leaf(leaf).DemandSummary()
		sums[leaf] = s
	}
	res, err := e.tree.Rebalance(2731)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, a := range e.tree.Leaves() {
		for _, b := range e.tree.Leaves() {
			if a < b && sums[a] == sums[b] {
				pairs++
				if res.Leaves[a] != res.Leaves[b] {
					t.Errorf("%s and %s both summarise to %+v but got %.3f W and %.3f W", a, b, sums[a], res.Leaves[a], res.Leaves[b])
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatalf("fixture error: no two leaves share a summary: %v", sums)
	}
}

package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
	"nodecap/internal/telemetry"
)

// BatchTransport pushes fence-advancing batch operations at the node
// plane during a handoff. *ipmi.Client satisfies it over a real
// multiplexed connection; the chaos harness satisfies it in-process
// through ipmi.Mux. A nil transport skips the eager fence advance —
// fences then advance lazily on the new owner's first cap push, which
// leaves a window where a deposed leaf's same-epoch push would still
// be admitted; deployments that migrate under contention must wire it.
type BatchTransport interface {
	BatchPoll(ids []uint32) ([]ipmi.BatchPollResult, error)
	BatchSet(entries []ipmi.BatchSetEntry) ([]ipmi.BatchSetResult, error)
}

// NodeInfo is one node's identity in the tree.
type NodeInfo struct {
	Name string
	Addr string
	// ID is the consistent-hash key (assigned by the operator; the
	// chaos harness uses the engine index).
	ID uint32
}

// leafState is one leaf manager's slot. mgr == nil means the leaf is
// known from a restored snapshot but not (re)attached yet: it stays a
// member — its ownership survives an aggregator restart — but cannot
// be pushed to until Attach or seized via Seize.
type leafState struct {
	name       string
	mgr        *dcm.Manager
	budget     float64
	infeasible bool
}

// Tree is the aggregator: the root of the two-level control plane. It
// owns the node→leaf assignment (consistent-hash ring over member
// leaves), migrates ownership with fenced handoff on membership
// changes, and divides the datacenter budget over the leaves on
// Rebalance. All mutations persist the shard map to snapPath (when
// set) so a restarted aggregator resumes with the same ownership.
//
// Handoff fencing protocol (migrate): every membership change bumps
// the tree's fencing epoch once, installs it on every destination
// leaf, drops the moved nodes from their live old owners (desired
// state only — the applied caps keep standing on the BMCs), then
// re-asserts each moved node's *applied* limit through the batch
// transport at the new epoch. That last step advances the per-node
// fence watermark immediately — even for nodes with no active cap —
// so a deposed or isolated previous owner is refused by the plant
// itself (ipmi.CCStaleEpoch) from the moment the handoff completes,
// not from whenever the new owner happens to push a cap.
type Tree struct {
	mu        sync.Mutex
	ring      *Ring
	transport BatchTransport
	snapPath  string
	trace     *telemetry.Trace // nil = no decision trace

	seed   uint64
	vnodes int

	leaves map[string]*leafState
	nodes  map[string]NodeInfo
	owners map[string]string // node name -> leaf name
	// byName is nodes' keys in name order, built by nodeNames and dropped
	// wherever nodes changes; never modified in place.
	byName []string
	// snapBuf is the last encoded snapshot, kept so that persist reuses
	// its storage.
	snapBuf []byte

	epoch      uint64 // fencing epoch; bumped once per migration batch
	rebalances uint64
	budget     float64 // last cascaded datacenter budget
	infeasible bool

	// BreakHandoff skips the fencing-epoch bump on migration, so a
	// deposed owner keeps pushing at the same epoch the new owner uses
	// and the plant admits both writers. It exists only so the chaos
	// harness can prove its single_owner invariant catches a broken
	// handoff (chaos -break-handoff).
	BreakHandoff bool
	// BreakAggregator makes Rebalance hand each leaf 1.5× its share — a
	// division that no longer conserves the datacenter budget. It
	// exists only for the chaos -break-aggregator self-test proving
	// tree_budget_conserved fires.
	BreakAggregator bool
}

// NewTree builds an empty aggregator. vnodes <= 0 selects
// DefaultVnodes; transport may be nil (see BatchTransport); snapPath
// "" disables persistence.
func NewTree(seed uint64, vnodes int, transport BatchTransport, snapPath string) *Tree {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Tree{
		ring:      NewRing(seed, vnodes),
		transport: transport,
		snapPath:  snapPath,
		seed:      seed,
		vnodes:    vnodes,
		leaves:    make(map[string]*leafState),
		nodes:     make(map[string]NodeInfo),
		owners:    make(map[string]string),
		epoch:     1, // 0 is the unfenced legacy epoch; leaves start fenced
	}
}

// SetTelemetry wires a decision trace; handoffs and cascades emit
// EvHandoff / EvShardRebalance events onto it.
func (t *Tree) SetTelemetry(trace *telemetry.Trace) {
	t.mu.Lock()
	t.trace = trace
	t.mu.Unlock()
}

// memberNames reports the sorted member leaf names. Callers hold t.mu.
func (t *Tree) memberNames() []string {
	names := make([]string, 0, len(t.leaves))
	for name := range t.leaves {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// nodeNames reports the sorted node names, sorting only when the set
// has changed since the last call. Callers hold t.mu and must not
// modify the result.
func (t *Tree) nodeNames() []string {
	if t.byName == nil && len(t.nodes) > 0 {
		t.byName = make([]string, 0, len(t.nodes))
		for name := range t.nodes {
			t.byName = append(t.byName, name)
		}
		sort.Strings(t.byName)
	}
	return t.byName
}

// AddLeaf admits a leaf manager into the tree and migrates the nodes
// the ring assigns it. Returns how many nodes moved.
func (t *Tree) AddLeaf(name string, mgr *dcm.Manager) (int, error) {
	if mgr == nil {
		return 0, fmt.Errorf("shard: leaf %q needs a manager", name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.leaves[name]; ok {
		return 0, fmt.Errorf("shard: leaf %q already a member", name)
	}
	t.leaves[name] = &leafState{name: name, mgr: mgr}
	mgr.SetFencing(dcm.RolePrimary, t.epoch)
	moved, err := t.migrate()
	return moved, errors.Join(err, t.persist())
}

// Rejoin readmits a previously seized leaf with a (possibly restarted)
// manager. The manager's registrations and desired caps are purged
// first: whatever it believed it owned before the crash or partition
// is stale — counting those caps again, next to the nodes' current
// owners, is exactly the double-budget-count the tree exists to
// prevent. The nodes the ring hands back arrive capless and receive
// fresh caps at the next Rebalance (their applied limits keep standing
// on the BMCs meanwhile).
func (t *Tree) Rejoin(name string, mgr *dcm.Manager) (int, error) {
	if mgr == nil {
		return 0, fmt.Errorf("shard: leaf %q needs a manager", name)
	}
	for _, st := range mgr.Nodes() {
		_ = mgr.RemoveNode(st.Name)
	}
	return t.AddLeaf(name, mgr)
}

// Attach re-binds a live manager to a leaf restored from a snapshot
// (mgr == nil until then). Ownership is unchanged — that is the point
// of restoring — the fencing epoch is reinstalled, and any node a
// handoff assigned to this leaf while it was unattached (migrate
// defers registration rather than dereferencing a nil manager) is
// registered with the manager now. The attachment itself stands even
// when some registrations fail — those errors come back joined; the
// nodes re-register when the operator re-adds them.
func (t *Tree) Attach(name string, mgr *dcm.Manager) error {
	if mgr == nil {
		return fmt.Errorf("shard: leaf %q needs a manager", name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ls, ok := t.leaves[name]
	if !ok {
		return fmt.Errorf("shard: unknown leaf %q", name)
	}
	if ls.mgr != nil {
		return fmt.Errorf("shard: leaf %q already attached", name)
	}
	ls.mgr = mgr
	mgr.SetFencing(dcm.RolePrimary, t.epoch)
	known := make(map[string]bool)
	for _, st := range mgr.Nodes() {
		known[st.Name] = true
	}
	var errs []error
	for _, node := range t.nodeNames() {
		if t.owners[node] != name || known[node] {
			continue
		}
		if err := mgr.AddNode(node, t.nodes[node].Addr); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Seize expels a crashed, isolated, or decommissioned leaf and
// migrates its nodes to the survivors with fenced handoff. The leaf's
// manager (if any — it may be dead) is not touched: if it is still
// running somewhere beyond a partition, the epoch bump is what stops
// it. Returns how many nodes moved.
func (t *Tree) Seize(name string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.leaves[name]; !ok {
		return 0, fmt.Errorf("shard: unknown leaf %q", name)
	}
	delete(t.leaves, name)
	moved, err := t.migrate()
	return moved, errors.Join(err, t.persist())
}

// Rebind re-binds a tree restored by NewTreeFromState to the leaf
// managers that outlived the aggregator: the restart procedure, run by
// dcmd (every leaf live) and by the chaos harness (the survivors live).
// Members named in live are attached, in name order. Members absent
// from it are seized — only once every survivor is attached, because a
// seize hands the casualty's nodes to the survivors and can only fence
// and register through leaves already bound. Last, a node a live
// manager knows but the map does not (the map and the leaf journals
// commit independently) is dropped from that manager and routed through
// the ring by NodeID. Names in live the snapshot lacks are ignored.
// Set BreakHandoff, BreakAggregator and SetTelemetry first: the seizes
// emit EvHandoff.
//
// moved counts the nodes the seizes handed off. A leaf that will not
// bind aborts; per-node registration, fencing and persist errors come
// back joined while the tree stands.
func (t *Tree) Rebind(live map[string]*dcm.Manager) (moved int, err error) {
	var errs []error
	var dead []string
	for _, name := range t.Leaves() {
		mgr, ok := live[name]
		if !ok {
			dead = append(dead, name)
			continue
		}
		if err := t.Attach(name, mgr); err != nil {
			if t.Leaf(name) == nil {
				return 0, err
			}
			errs = append(errs, err)
		}
	}
	for _, name := range dead {
		n, err := t.Seize(name)
		moved += n
		errs = append(errs, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.memberNames() {
		mgr := t.leaves[name].mgr
		for _, st := range mgr.Nodes() {
			if _, owned := t.owners[st.Name]; !owned {
				_ = mgr.RemoveNode(st.Name)
				errs = append(errs, t.route(NodeInfo{Name: st.Name, Addr: st.Addr, ID: NodeID(st.Name)}))
			}
		}
	}
	return moved, errors.Join(append(errs, t.persist())...)
}

// AddNode registers a node with the tree, routing it to its ring
// owner.
func (t *Tree) AddNode(name, addr string, id uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.route(NodeInfo{Name: name, Addr: addr, ID: id}); err != nil {
		return err
	}
	return t.persist()
}

// route registers one node with its ring owner's manager and records
// the ownership. Callers hold t.mu and persist.
func (t *Tree) route(info NodeInfo) error {
	if _, ok := t.nodes[info.Name]; ok {
		return fmt.Errorf("shard: node %q already registered", info.Name)
	}
	owner, ok := t.ring.Owner(info.ID)
	if !ok {
		return fmt.Errorf("shard: no member leaves")
	}
	ls := t.leaves[owner]
	if ls.mgr == nil {
		return fmt.Errorf("shard: owner leaf %q not attached", owner)
	}
	if err := ls.mgr.AddNode(info.Name, info.Addr); err != nil {
		return err
	}
	t.nodes[info.Name] = info
	t.owners[info.Name] = owner
	t.byName = nil
	return nil
}

// AddNodes bulk-registers nodes, persisting the shard map once at the
// end — registering a fleet node-by-node would rewrite the snapshot
// per node, O(n²) at datacenter scale. Nodes are routed in input
// order; the first routing failure aborts, but the nodes already
// registered in the batch stay registered and are persisted before the
// error returns — an aggregator crash right after must not silently
// drop them from the restored map.
func (t *Tree) AddNodes(infos []NodeInfo) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, info := range infos {
		if err := t.route(info); err != nil {
			return errors.Join(err, t.persist())
		}
	}
	return t.persist()
}

// RemoveNode deregisters a node from the tree and its owning leaf.
func (t *Tree) RemoveNode(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.nodes[name]; !ok {
		return fmt.Errorf("shard: unknown node %q", name)
	}
	if ls := t.leaves[t.owners[name]]; ls != nil && ls.mgr != nil {
		_ = ls.mgr.RemoveNode(name)
	}
	delete(t.nodes, name)
	delete(t.owners, name)
	t.byName = nil
	return t.persist()
}

// migrate recomputes the ring over the current membership, diffs the
// assignment against current ownership, and executes the fenced
// handoff for every node that moved. Callers hold t.mu.
func (t *Tree) migrate() (int, error) {
	t.ring.SetLeaves(t.memberNames())
	if len(t.leaves) == 0 {
		return 0, nil
	}
	type move struct {
		info     NodeInfo
		from, to string
	}
	var moves []move
	for _, name := range t.nodeNames() {
		info := t.nodes[name]
		owner, ok := t.ring.Owner(info.ID)
		if !ok {
			continue
		}
		if cur := t.owners[name]; cur != owner {
			moves = append(moves, move{info: info, from: cur, to: owner})
		}
	}
	if len(moves) == 0 {
		return 0, nil
	}

	// One epoch bump covers the whole batch; every destination leaf
	// actuates at the new epoch from here on.
	if !t.BreakHandoff {
		t.epoch++
	}
	dsts := make(map[string]bool)
	for _, mv := range moves {
		dsts[mv.to] = true
	}
	for name := range dsts {
		// A destination may be a snapshot-restored member not yet
		// re-bound to a live manager (leafState.mgr == nil): ownership
		// still moves — the map must stay consistent with the ring — but
		// fencing and registration wait for Attach, which reinstalls the
		// then-current epoch and reconciles owned nodes into the manager.
		if ls := t.leaves[name]; ls.mgr != nil {
			ls.mgr.SetFencing(dcm.RolePrimary, t.epoch)
		}
	}

	// Release from live old owners: desired state only. The applied
	// caps keep standing on the BMCs until the new owner re-caps.
	var errs []error
	ids := make([]uint32, 0, len(moves))
	for _, mv := range moves {
		if from := t.leaves[mv.from]; from != nil && from.mgr != nil {
			_ = from.mgr.RemoveNode(mv.info.Name)
		}
		ids = append(ids, mv.info.ID)
	}

	// Advance the plant-side fences before the new owners register.
	errs = append(errs, t.fenceNodes(ids))

	for _, mv := range moves {
		t.owners[mv.info.Name] = mv.to
		if dst := t.leaves[mv.to]; dst.mgr == nil {
			errs = append(errs, fmt.Errorf("shard: node %q handed to unattached leaf %q; registration deferred to attach", mv.info.Name, mv.to))
		} else if err := dst.mgr.AddNode(mv.info.Name, mv.info.Addr); err != nil {
			errs = append(errs, err)
		}
		t.trace.Append(telemetry.Event{
			Node: mv.info.Name, Kind: telemetry.EvHandoff,
			N: int64(t.epoch), Err: mv.from + "->" + mv.to,
		})
	}
	return len(moves), errors.Join(errs...)
}

// fenceNodes re-asserts each node's applied limit at the tree's
// current epoch through the batch transport: the values are unchanged,
// only the fence watermark advances. Callers hold t.mu.
func (t *Tree) fenceNodes(ids []uint32) error {
	if t.transport == nil || len(ids) == 0 {
		return nil
	}
	var errs []error
	for len(ids) > 0 {
		n := min(len(ids), ipmi.MaxBatchEntries)
		polls, err := t.transport.BatchPoll(ids[:n])
		ids = ids[n:]
		if err != nil {
			errs = append(errs, err)
			continue
		}
		entries := make([]ipmi.BatchSetEntry, 0, len(polls))
		for _, p := range polls {
			if p.CC != ipmi.CCOK {
				errs = append(errs, fmt.Errorf("shard: handoff poll of node id %d: cc %#x", p.ID, p.CC))
				continue
			}
			lim := p.Limit
			lim.Epoch = t.epoch
			entries = append(entries, ipmi.BatchSetEntry{ID: p.ID, Limit: lim})
		}
		if len(entries) == 0 {
			continue
		}
		results, err := t.transport.BatchSet(entries)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, r := range results {
			if r.CC != ipmi.CCOK {
				errs = append(errs, fmt.Errorf("shard: handoff fence of node id %d: cc %#x", r.ID, r.CC))
			}
		}
	}
	return errors.Join(errs...)
}

// Owner reports the leaf owning the named node.
func (t *Tree) Owner(node string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, ok := t.owners[node]
	return leaf, ok
}

// Leaf returns the named leaf's manager (nil when unattached).
func (t *Tree) Leaf(name string) *dcm.Manager {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ls, ok := t.leaves[name]; ok {
		return ls.mgr
	}
	return nil
}

// Leaves reports the sorted member leaf names.
func (t *Tree) Leaves() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.memberNames()
}

// Epoch reports the current fencing epoch.
func (t *Tree) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// DesiredSum sums the enabled desired caps across every *attached*
// member leaf — each node counted once, under its current owner. This
// is the quantity the tree_budget_conserved invariant audits each
// tick: a seized or unattached leaf's desired caps are fenced void
// (their non-actuation is single_owner's department), so counting
// them would double-charge nodes already counted under new owners.
func (t *Tree) DesiredSum() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, ls := range t.leaves {
		if ls.mgr != nil {
			sum += ls.mgr.DesiredCapSum()
		}
	}
	return sum
}

// Status reports per-shard state, sorted by leaf name.
func (t *Tree) Status() []dcm.ShardStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make(map[string]int, len(t.leaves))
	for _, leaf := range t.owners {
		counts[leaf]++
	}
	out := make([]dcm.ShardStatus, 0, len(t.leaves))
	for _, name := range t.memberNames() {
		ls := t.leaves[name]
		out = append(out, dcm.ShardStatus{
			Leaf:        name,
			Alive:       ls.mgr != nil,
			Epoch:       t.epoch,
			Nodes:       counts[name],
			BudgetWatts: ls.budget,
			Infeasible:  ls.infeasible,
		})
	}
	return out
}

// Infeasible reports whether the last cascade could not fit the
// datacenter budget above the platform minimums.
func (t *Tree) Infeasible() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.infeasible
}

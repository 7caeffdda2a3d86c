package chaos

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
	"nodecap/internal/shard"
)

// Sharded-mode fleet state: a two-level control plane (shard.Tree
// aggregator over per-shard leaf managers) replaces the solo manager.
// Every leaf dials nodes through the same memLink fault surface the
// solo manager uses, and the aggregator's fenced-handoff batch plane
// runs through an ipmi.Mux over the same per-node servers — so batch
// fences and per-leaf pushes contend on one watermark, exactly as
// deployed. The mux transport models the management network: it stays
// up when individual manager↔node links are partitioned (those faults
// hit the leaf dial path, not the handoff plane), and a leaf's
// "partition" from the tree is EvLeafIsolate — the aggregator seizes
// its shard while the isolated manager keeps actuating on stale state,
// the duel the plant-side fence must win.
type shardedCluster struct {
	tree     *shard.Tree
	leaves   []*shardLeaf
	mux      *ipmi.Mux
	snapPath string

	// pushLog records every cap push the plant ADMITTED, attributed to
	// the leaf whose connection carried it. The single_owner checker
	// drains it each tick: an admitted push from a non-owner means a
	// handoff left two writers actuating.
	pushLog []ownedPush
}

type shardLeaf struct {
	name     string
	mgr      *dcm.Manager // nil while crashed
	isolated bool         // seized from the tree, manager still running
	crashed  bool
	// staleBudget is the last shard budget the aggregator granted this
	// leaf. An isolated leaf keeps re-applying it — the stale-state
	// actuation the fencing epoch exists to refuse.
	staleBudget float64
	gen         int // state-dir generation, bumped per restart
}

type ownedPush struct{ node, leaf int }

func (sh *shardedCluster) leafName(li int) string { return fmt.Sprintf("leaf-%02d", li) }

// setupSharded builds the tree, its leaves, and the mux batch plane.
func (f *Fleet) setupSharded() error {
	s := f.scenario
	sh := &shardedCluster{
		mux:      ipmi.NewMux(),
		snapPath: shard.SnapshotPathIn(f.dir),
	}
	for i, srv := range f.srvs {
		sh.mux.Register(uint32(i), srv)
	}
	sh.tree = shard.NewTree(uint64(s.Seed), 0, &chaosBatch{mux: sh.mux}, sh.snapPath)
	sh.tree.BreakHandoff = s.BreakHandoff
	sh.tree.BreakAggregator = s.BreakAggregator
	sh.tree.SetTelemetry(f.trace)
	f.sh = sh
	for li := 0; li < s.Shards; li++ {
		lf := &shardLeaf{name: sh.leafName(li)}
		mgr, err := f.newLeafManager(lf, li)
		if err != nil {
			return err
		}
		lf.mgr = mgr
		sh.leaves = append(sh.leaves, lf)
		if _, err := sh.tree.AddLeaf(lf.name, mgr); err != nil {
			return fmt.Errorf("chaos: adding leaf %s: %w", lf.name, err)
		}
	}
	return nil
}

// newLeafManager builds one leaf's manager at its current state-dir
// generation. A restarted leaf gets a FRESH directory: leaf recovery is
// by rejoin (the tree re-registers its shard), not by journal replay,
// so the solo-mode shadow model stays out of sharded runs.
func (f *Fleet) newLeafManager(lf *shardLeaf, li int) (*dcm.Manager, error) {
	dir := filepath.Join(f.dir, fmt.Sprintf("%s-g%d", lf.name, lf.gen))
	return f.newManagerWith(dir, f.leafDialer(li))
}

// leafDialer is f.dialer with leaf attribution: pushes this manager's
// connections land are logged for the single_owner checker.
func (f *Fleet) leafDialer(leaf int) dcm.Dialer {
	return func(addr string) (dcm.BMC, error) {
		i, ok := f.nameIdx[addr]
		if !ok {
			return nil, fmt.Errorf("chaos: unknown address %q", addr)
		}
		if down, _ := f.linkState(i); down {
			return nil, errLinkDown
		}
		return &memLink{f: f, i: i, leaf: leaf}, nil
	}
}

// notePush logs an admitted cap push for the single_owner drain. Run
// loop and poll workers are sequential in sharded mode (one poll
// worker, one loop), so no lock beyond linkMu is needed — but pushes
// can come from Poll reconciliation inside mgr.Poll, same goroutine.
func (f *Fleet) notePush(node, leaf int) {
	f.sh.pushLog = append(f.sh.pushLog, ownedPush{node: node, leaf: leaf})
}

// drainPushes consumes the admitted-push log.
func (sh *shardedCluster) drainPushes() []ownedPush {
	out := sh.pushLog
	sh.pushLog = nil
	return out
}

// registerAllSharded bulk-registers every sim node with the tree —
// one snapshot persist for the whole fleet instead of one per node.
func (f *Fleet) registerAllSharded() error {
	infos := make([]shard.NodeInfo, f.scenario.Nodes)
	for i := range infos {
		infos[i] = shard.NodeInfo{Name: f.name(i), Addr: f.nodeAddr(i), ID: uint32(i)}
	}
	if err := f.sh.tree.AddNodes(infos); err != nil {
		return fmt.Errorf("chaos: registering sharded fleet: %w", err)
	}
	for i := range f.registered {
		f.registered[i] = true
	}
	return nil
}

// shardTick drives the sharded control plane's deterministic cadence:
// leaf polls at the poll cadence, the aggregator's budget cascade at
// the rebalance cadence — and, after each cascade, every isolated
// leaf re-applies its stale grant, duelling the fence.
func (f *Fleet) shardTick(tick, pollEvery, rebalanceEvery int) {
	sh := f.sh
	if tick%pollEvery == pollEvery-1 {
		for _, lf := range sh.leaves {
			if lf.mgr != nil {
				lf.mgr.Poll()
			}
		}
	}
	if tick%rebalanceEvery == rebalanceEvery-1 {
		// Cascade errors (pushes to partitioned nodes) are expected chaos;
		// the granted budgets are recorded regardless.
		res, _ := sh.tree.Rebalance(f.budget)
		for _, lf := range sh.leaves {
			if g, ok := res.Leaves[lf.name]; ok {
				lf.staleBudget = g
			}
		}
		for _, lf := range sh.leaves {
			if !lf.isolated || lf.mgr == nil {
				continue
			}
			group := leafGroup(lf.mgr)
			if len(group) > 0 {
				_, _ = lf.mgr.ApplyBudget(lf.staleBudget, group)
			}
		}
	}
}

// leafGroup lists a leaf manager's registered node names, sorted.
func leafGroup(mgr *dcm.Manager) []string {
	sts := mgr.Nodes()
	out := make([]string, 0, len(sts))
	for _, st := range sts {
		out = append(out, st.Name)
	}
	sort.Strings(out)
	return out
}

// shardIsolate partitions a leaf away from the aggregator: the tree
// seizes its shard (fenced handoff to the survivors) while the leaf's
// manager keeps running on stale registrations. Returns nodes moved.
func (f *Fleet) shardIsolate(li int, v *Verdict) error {
	lf := f.sh.leaves[li]
	if lf.isolated || lf.crashed || lf.mgr == nil {
		return nil
	}
	moved, err := f.sh.tree.Seize(lf.name)
	if err != nil {
		return fmt.Errorf("chaos: isolating %s: %w", lf.name, err)
	}
	lf.isolated = true
	v.Handoffs += moved
	return nil
}

// shardRejoin heals the leaf's aggregator link: the tree readmits it,
// purging its stale registrations and handing its ring share back with
// a fresh fencing epoch.
func (f *Fleet) shardRejoin(li int, v *Verdict) error {
	lf := f.sh.leaves[li]
	if !lf.isolated || lf.mgr == nil {
		return nil
	}
	moved, err := f.sh.tree.Rejoin(lf.name, lf.mgr)
	if err != nil {
		return fmt.Errorf("chaos: rejoining %s: %w", lf.name, err)
	}
	lf.isolated = false
	v.Handoffs += moved
	return nil
}

// shardCrash kills a leaf manager outright. Its shard is seized (if it
// was still a member) and its process state is gone — the restart
// builds a fresh manager in a fresh state dir.
func (f *Fleet) shardCrash(li int, v *Verdict) error {
	lf := f.sh.leaves[li]
	if lf.crashed || lf.mgr == nil {
		return nil
	}
	lf.mgr.Crash()
	lf.mgr = nil
	if !lf.isolated {
		moved, err := f.sh.tree.Seize(lf.name)
		if err != nil {
			return fmt.Errorf("chaos: seizing crashed %s: %w", lf.name, err)
		}
		v.Handoffs += moved
	}
	lf.isolated = false
	lf.crashed = true
	v.LeafCrashes++
	return nil
}

// shardRestart brings a crashed leaf back as a fresh process and
// rejoins it to the tree.
func (f *Fleet) shardRestart(li int, v *Verdict) error {
	lf := f.sh.leaves[li]
	if !lf.crashed {
		return nil
	}
	lf.gen++
	mgr, err := f.newLeafManager(lf, li)
	if err != nil {
		return err
	}
	moved, err := f.sh.tree.Rejoin(lf.name, mgr)
	if err != nil {
		return fmt.Errorf("chaos: restarting %s: %w", lf.name, err)
	}
	lf.mgr = mgr
	lf.crashed = false
	v.Handoffs += moved
	v.LeafRestarts++
	return nil
}

// shardAggRestart restarts the aggregator from its journaled shard
// map: the new tree must recover the exact node→leaf ownership the old
// one persisted, re-attach the live leaves, and seize the shards of
// leaves that died or stayed isolated across the restart.
func (f *Fleet) shardAggRestart(v *Verdict) error {
	sh := f.sh
	st, err := shard.LoadSnapshot(sh.snapPath)
	if err != nil {
		return fmt.Errorf("chaos: loading shard map: %w", err)
	}
	tree, err := shard.NewTreeFromState(st, &chaosBatch{mux: sh.mux}, sh.snapPath)
	if err != nil {
		return fmt.Errorf("chaos: restoring tree: %w", err)
	}
	tree.BreakHandoff = f.scenario.BreakHandoff
	tree.BreakAggregator = f.scenario.BreakAggregator
	tree.SetTelemetry(f.trace)
	// Tree.Rebind is the restart procedure dcmd ships; here the leaves
	// that crashed or stayed isolated are left out of live, so their
	// shards are seized once every survivor is re-attached.
	live := make(map[string]*dcm.Manager, len(sh.leaves))
	for _, lf := range sh.leaves {
		if lf.mgr != nil && !lf.isolated && !lf.crashed {
			live[lf.name] = lf.mgr
		}
	}
	moved, err := tree.Rebind(live)
	if err != nil {
		return fmt.Errorf("chaos: re-binding leaves after aggregator restart: %w", err)
	}
	v.Handoffs += moved
	sh.tree = tree
	v.AggRestarts++
	return nil
}

// chaosBatch adapts the fleet's ipmi.Mux to shard.BatchTransport,
// round-tripping real batch frames through Mux.Handle — the same
// dispatch (and the same per-node fence watermarks) the leaf memLinks
// hit.
type chaosBatch struct {
	mux *ipmi.Mux
	seq uint32
}

func (c *chaosBatch) exchange(cmd uint8, payload []byte) ([]byte, error) {
	c.seq++
	resp := c.mux.Handle(ipmi.Frame{Seq: c.seq, NetFn: ipmi.NetFnOEM, Cmd: cmd, Payload: payload})
	if len(resp.Payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	if cc := resp.Payload[0]; cc != ipmi.CCOK {
		return nil, fmt.Errorf("chaos: batch completion code %#02x", cc)
	}
	return resp.Payload[1:], nil
}

func (c *chaosBatch) BatchPoll(ids []uint32) ([]ipmi.BatchPollResult, error) {
	payload, err := ipmi.EncodeBatchPollRequest(ids)
	if err != nil {
		return nil, err
	}
	b, err := c.exchange(ipmi.CmdBatchPoll, payload)
	if err != nil {
		return nil, err
	}
	return ipmi.DecodeBatchPollResponse(b)
}

func (c *chaosBatch) BatchSet(entries []ipmi.BatchSetEntry) ([]ipmi.BatchSetResult, error) {
	payload, err := ipmi.EncodeBatchSetRequest(entries)
	if err != nil {
		return nil, err
	}
	b, err := c.exchange(ipmi.CmdBatchSet, payload)
	if err != nil {
		return nil, err
	}
	return ipmi.DecodeBatchSetResponse(b)
}

// stop releases leaf managers.
func (sh *shardedCluster) stop() {
	for _, lf := range sh.leaves {
		if lf.mgr != nil {
			lf.mgr.Close()
			lf.mgr = nil
		}
	}
}

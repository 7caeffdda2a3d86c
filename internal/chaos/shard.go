package chaos

import (
	"fmt"

	"nodecap/internal/daemon"
	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
	"nodecap/internal/shard"
)

// Tree events act on a leaf's member 0: a tree leaf has one member.
// The mux transport models the management network: it stays up when
// individual manager↔node links are partitioned (those faults hit the
// leaf dial path, not the handoff plane), and a leaf's "partition" from
// the tree is EvLeafIsolate — the aggregator seizes its shard while the
// isolated manager keeps actuating on stale state, the duel the
// plant-side fence must win.

// leafIsolate partitions a leaf away from the aggregator: the tree
// seizes its shard (fenced handoff to the survivors) while the leaf's
// manager keeps running on stale registrations.
func (f *Fleet) leafIsolate(lf *leaf, v *Verdict) error {
	m := lf.members[0]
	if m.isolated || m.mgr == nil {
		return nil
	}
	moved, err := f.tree.Seize(lf.name)
	if err != nil {
		return fmt.Errorf("chaos: isolating %s: %w", lf.name, err)
	}
	m.isolated = true
	v.Handoffs += moved
	return nil
}

// leafRejoin heals the leaf's aggregator link: the tree readmits it,
// purging its stale registrations and handing its ring share back with
// a fresh fencing epoch.
func (f *Fleet) leafRejoin(lf *leaf, v *Verdict) error {
	m := lf.members[0]
	if !m.isolated || m.mgr == nil {
		return nil
	}
	moved, err := f.tree.Rejoin(lf.name, m.mgr)
	if err != nil {
		return fmt.Errorf("chaos: rejoining %s: %w", lf.name, err)
	}
	m.isolated = false
	v.Handoffs += moved
	return nil
}

// leafCrash kills a leaf manager outright. Its shard is seized (if it
// was still a member) and its process state is gone — the restart
// builds a fresh manager in a fresh state dir.
func (f *Fleet) leafCrash(lf *leaf, v *Verdict) error {
	m := lf.members[0]
	if m.mgr == nil {
		return nil
	}
	if _, err := f.crash(lf, 0, 0); err != nil {
		return err
	}
	if !m.isolated {
		moved, err := f.tree.Seize(lf.name)
		if err != nil {
			return fmt.Errorf("chaos: seizing crashed %s: %w", lf.name, err)
		}
		v.Handoffs += moved
	}
	m.isolated = false
	v.LeafCrashes++
	return nil
}

// leafRestart brings a crashed leaf back as a fresh process in a fresh
// state-dir generation and rejoins it to the tree.
func (f *Fleet) leafRestart(lf *leaf, v *Verdict) error {
	m := lf.members[0]
	if m.mgr != nil {
		return nil
	}
	m.gen++
	mgr, err := f.newManager(m)
	if err != nil {
		return err
	}
	moved, err := f.tree.Rejoin(lf.name, mgr)
	if err != nil {
		return fmt.Errorf("chaos: restarting %s: %w", lf.name, err)
	}
	m.mgr, lf.lead = mgr, 0
	v.Handoffs += moved
	v.LeafRestarts++
	return nil
}

// aggRestart restarts the aggregator from its journaled shard map,
// which names the old tree's members: the new tree must recover the
// exact node→leaf ownership the old one persisted, re-attach the live
// leaves, and seize the shards of leaves that died or stayed isolated.
func (f *Fleet) aggRestart(v *Verdict) error {
	moved, err := f.openTree(f.tree.Leaves())
	if err != nil {
		return fmt.Errorf("chaos: restoring tree: %w", err)
	}
	v.Handoffs += moved
	v.AggRestarts++
	return nil
}

// openTree opens the aggregator over leaves as dcmd does, bound to
// every leaf whose manager runs and is not isolated from it, and
// installs it with the scenario's sabotage switches and the fleet trace.
func (f *Fleet) openTree(leaves []string) (moved int, err error) {
	live := make(map[string]*dcm.Manager, len(f.leaves))
	for _, lf := range f.leaves {
		if m := lf.acting(); m != nil && !m.isolated {
			live[lf.name] = m.mgr
		}
	}
	_, moved, err = daemon.OpenTree(uint64(f.scenario.Seed), leaves, live, f.batchPlane(), f.snapPath, func(t *shard.Tree) {
		t.BreakHandoff = f.scenario.BreakHandoff
		t.BreakAggregator = f.scenario.BreakAggregator
		t.SetTelemetry(f.trace)
		f.tree = t
	})
	return moved, err
}

// batchPlane is the tree's shard.BatchTransport: the product client
// over a loopback into the fleet's ipmi.Mux — the same dispatch (and
// the same per-node fence watermarks) the leaves' links hit.
func (f *Fleet) batchPlane() *ipmi.Client {
	return ipmi.NewClientConn(ipmi.Loopback(func(req ipmi.Frame) (ipmi.Frame, error) {
		return f.mux.Handle(req), nil
	}))
}

package chaos

import (
	"fmt"
	"path/filepath"
	"sync/atomic"

	"nodecap/internal/daemon"
	"nodecap/internal/dcm"
	"nodecap/internal/dcm/store"
	"nodecap/internal/ipmi"
	"nodecap/internal/shard"
)

// The control plane is one model in every mode: a fleet owns leaves,
// and a leaf is a replica set of members. Solo runs one leaf of one
// member; HA runs one leaf of two members that share a lease and a
// journal replication session; a sharded run (Scenario.Shards > 0) runs
// that many one-member leaves under a shard.Tree aggregator, whose
// fenced-handoff batch plane reaches the nodes through an ipmi.Mux over
// the same per-node servers the leaves dial — so batch fences and
// per-leaf pushes contend on one watermark, exactly as deployed.

// member is one control-plane process of a leaf: the leader, a standby
// replicating the leader's journal, or a deposed manager that has not
// yet learned it lost. A member holding neither a manager nor a store
// is down (crashed or killed) and awaits its restart event.
type member struct {
	id  string
	gen int // state-dir generation, bumped per tree-leaf restart
	// leaf is the tree leaf index admitted cap pushes are attributed to
	// for single_owner; -1 without a tree.
	leaf int

	// mgr runs while the member leads or duels; node is its lease
	// handle in a replicated leaf.
	mgr  *dcm.Manager
	node *dcm.HANode

	// st and rep are set while the member is a standby replica.
	st  *store.Store
	rep *store.Replica

	// stalled stops the leader's lease renewals (a paused process);
	// isolated marks a tree leaf the aggregator seized while its
	// manager keeps running.
	stalled, isolated bool

	// grant is the last budget granted to this member's leaf: the whole
	// budget without a tree, the aggregator's share with one. A manager
	// that lost ownership keeps re-applying it — the stale-state
	// actuation the fencing epoch exists to refuse.
	grant float64
}

type leaf struct {
	name    string
	members []*member
	lead    int // index of the leading member; -1 while none leads

	// Replication state of a leaf with standbys. lease is shared by the
	// members; feed is the leader-side session (nil forces a fresh
	// HELLO on the next pump); pendingTear is the EvReplTear byte seed
	// applied to the standby's journal at its next promotion.
	lease       *store.LeaseFile
	feed        *store.Feed
	replDown    bool
	pendingTear int
}

type ownedPush struct{ node, leaf int }

// acting returns the member leading lf, or nil while none does.
func (lf *leaf) acting() *member {
	if lf.lead < 0 {
		return nil
	}
	return lf.members[lf.lead]
}

// leader is the acting manager of a fleet without a tree (its one
// leaf's leading member), or nil while that leaf has none.
func (f *Fleet) leader() *dcm.Manager {
	if m := f.leaves[0].acting(); m != nil {
		return m.mgr
	}
	return nil
}

// stateDir is member m's state dir at its current generation. A tree
// leaf restarts into a fresh one: its recovery is by rejoin (the tree
// re-registers its shard), not by journal replay.
func (f *Fleet) stateDir(m *member) string {
	return filepath.Join(f.dir, fmt.Sprintf("%s-g%d", m.id, m.gen))
}

// setup builds the control plane: Scenario.Shards leaves (one without a
// tree) of two members with HA, one without. Member 0 of each leaf
// leads — taking the lease first when the leaf has standbys — and the
// others open empty stores and replicate. A tree opens over the leaders.
func (f *Fleet) setup() error {
	s := f.scenario
	leaves, replicas := 1, 1
	if s.Shards > 0 {
		leaves = s.Shards
		f.mux = ipmi.NewMux()
		for i, srv := range f.srvs {
			f.mux.Register(uint32(i), srv)
		}
		f.snapPath = shard.SnapshotPathIn(f.dir)
	}
	if s.HA {
		replicas = 2
	}
	var names []string
	for li := 0; li < leaves; li++ {
		lf := &leaf{name: daemon.LeafName(li)}
		f.leaves = append(f.leaves, lf)
		for mi := 0; mi < replicas; mi++ {
			m := &member{id: fmt.Sprintf("%s-m%d", lf.name, mi), leaf: -1, grant: f.budget}
			if s.Shards > 0 {
				m.leaf, m.grant = li, 0
			}
			lf.members = append(lf.members, m)
		}
		mgr, err := f.newManager(lf.members[0])
		if err != nil {
			return err
		}
		lf.members[0].mgr = mgr
		names = append(names, lf.name)
		if replicas > 1 {
			lf.lease = &store.LeaseFile{Path: store.LeasePath(f.dir), Clock: f.leaseNow}
			if err := lf.takeLease(0, mgr); err != nil {
				return err
			}
			for _, m := range lf.members[1:] {
				if err := f.openStandby(m); err != nil {
					return err
				}
			}
		}
	}
	if s.Shards > 0 {
		if _, err := f.openTree(names); err != nil {
			return fmt.Errorf("chaos: opening the tree: %w", err)
		}
	}
	return nil
}

// step runs the control plane's share of one tick, after the engine
// has stepped the plants. The order is part of every verdict and fixed
// (DESIGN §6b): lease, replication and promotion first; then, when a
// poll is due, every leaf's acting manager polls in leaf order,
// isolated leaves included; then, when a rebalance is due, the budget
// moves; last, every deposed member duels the fence.
func (f *Fleet) step(tick, pollEvery, rebalanceEvery int, iv *invariants, v *Verdict) error {
	atomic.StoreInt64(&f.leaseNS, int64(tick)*int64(haLeaseTick))
	for _, lf := range f.leaves {
		if err := f.replicate(tick, lf, iv, v); err != nil {
			return err
		}
	}
	poll := tick%pollEvery == pollEvery-1
	rebalance := tick%rebalanceEvery == rebalanceEvery-1
	if poll {
		for _, lf := range f.leaves {
			if m := lf.acting(); m != nil {
				m.mgr.Poll()
			}
		}
		iv.notePoll()
	}
	if rebalance {
		f.rebalance(tick, iv)
	}
	for _, lf := range f.leaves {
		for i, m := range lf.members {
			if i == lf.lead || m.mgr == nil {
				continue
			}
			// A deposed leader still running a manager: its pushes carry
			// the old epoch, so with the fence intact every one is refused
			// and it concedes within a rebalance period; with fencing
			// broken they actuate the plant and single_writer fires.
			if poll {
				m.mgr.Poll()
			}
			if rebalance {
				m.applyGrant()
			}
			if m.mgr.Fenced() {
				// Positive proof a newer leader actuated the fleet: a real
				// deployment alerts and exits here; the drill stops it.
				if _, err := f.crash(lf, i, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// rebalance moves the budget. With a tree the aggregator cascades it to
// the leaves and each isolated leaf then re-applies its stale grant,
// duelling the fence; without one the leader allocates it and the
// harness mirrors the journaled setcaps and arms cap_push_bounded.
// Push failures (partitioned nodes) are expected chaos: the desired
// caps are journaled and the grants recorded regardless.
func (f *Fleet) rebalance(tick int, iv *invariants) {
	if f.tree == nil {
		if mgr := f.leader(); mgr != nil {
			if group := f.group(); len(group) > 0 {
				allocs, _ := mgr.ApplyBudget(f.budget, group)
				f.mirrorAllocs(allocs)
				iv.noteAllocs(allocs, tick)
			}
		}
		return
	}
	res, _ := f.tree.Rebalance(f.budget)
	for _, lf := range f.leaves {
		if g, ok := res.Leaves[lf.name]; ok {
			lf.members[0].grant = g
		}
	}
	for _, lf := range f.leaves {
		if m := lf.acting(); m != nil && m.isolated {
			m.applyGrant()
		}
	}
}

// applyGrant has a manager that lost ownership — a seized tree leaf or
// a deposed HA leader — re-apply its last grant across the nodes it
// still believes it owns (Manager.Nodes lists them sorted by name).
func (m *member) applyGrant() {
	sts := m.mgr.Nodes()
	group := make([]string, 0, len(sts))
	for _, st := range sts {
		group = append(group, st.Name)
	}
	if len(group) > 0 {
		_, _ = m.mgr.ApplyBudget(m.grant, group)
	}
}

// crash kills member mi's manager the hard way — no compaction — and
// tears its journal at a cut derived from tornBytes (0 tears nothing),
// returning the records destroyed. A leading member leaves lf
// leaderless.
func (f *Fleet) crash(lf *leaf, mi, tornBytes int) (lost int, err error) {
	m := lf.members[mi]
	m.mgr.Crash()
	m.mgr, m.node = nil, nil
	if lf.lead == mi {
		lf.lead = -1
	}
	return tearJournal(f.stateDir(m), tornBytes)
}

// setRegistered rebuilds the registration map from a recovered state.
func (f *Fleet) setRegistered(st store.State) {
	for i := range f.registered {
		_, f.registered[i] = st.Nodes[f.name(i)]
	}
}

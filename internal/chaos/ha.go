package chaos

// Replication inside a leaf: with HA the leaf's two members share a
// lease in the fleet's state dir, and the leader's store streams
// journal records to the standby's replica over the pump-driven
// replication session. Everything is tick-synchronous — the lease clock
// is derived from the tick counter, the pump moves at most one batch
// per tick, and failover is a pure function of the event schedule — so
// HA scenarios replay bit-identically like the rest of the harness.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/dcm/store"
)

const (
	// haLeaseTick is how much simulated lease-clock time one control
	// tick represents.
	haLeaseTick = time.Millisecond
	// HALeaseTTLTicks is the lease term in ticks: a primary that
	// misses this many renewals is up for takeover. Exported so tests
	// can reason about failover latency.
	HALeaseTTLTicks = 12
	// haPumpBatch bounds how many replication frames move per tick,
	// so a standby visibly lags a write burst instead of syncing
	// atomically.
	haPumpBatch = 32
)

// leaseNow is the injectable clock for the shared lease: simulated
// lease time, advanced once per tick — never the manager's simClock,
// whose per-read advance would make lease expiry depend on call counts.
func (f *Fleet) leaseNow() time.Time {
	return time.Unix(0, atomic.LoadInt64(&f.leaseNS))
}

// standby returns the index of lf's member holding a replica, or -1.
func (lf *leaf) standby() int {
	for i, m := range lf.members {
		if i != lf.lead && m.rep != nil {
			return i
		}
	}
	return -1
}

// takeLease hands mgr to member mi (which owns it from here, so stop
// closes it on every path), starts its lease handle and makes it lf's
// leader. The epoch doubles as the replication generation: strictly
// increasing across leaderships, never reused. Announce-round push
// errors are tolerated — a partitioned node misses the fence advance,
// and reconciliation retries it.
func (lf *leaf) takeLease(mi int, mgr *dcm.Manager) error {
	m := lf.members[mi]
	m.mgr = mgr
	node := &dcm.HANode{ID: m.id, Lease: lf.lease, TTL: HALeaseTTLTicks * haLeaseTick, Mgr: mgr}
	role, err := node.Start()
	if role != dcm.RolePrimary {
		if err == nil {
			err = errors.New("lease still held")
		}
		return fmt.Errorf("chaos: %s failed to take the lease: %w", m.id, err)
	}
	mgr.Store().SetGen(mgr.Epoch())
	m.node, lf.lead = node, mi
	return nil
}

// openStandby opens m's store as a fresh replica. The replica starts
// with no resume claim (generation zero), so its first session takes a
// full snapshot of the leader — whatever its own journal recovers never
// leaks forward.
func (f *Fleet) openStandby(m *member) error {
	st, err := store.Open(f.stateDir(m))
	if err != nil {
		return fmt.Errorf("chaos: opening %s's standby store: %w", m.id, err)
	}
	st.SetSync(false)
	m.st, m.rep = st, store.NewReplica(st)
	return nil
}

// replicate advances lf's replica set one tick: leader renewal, one
// replication batch, and the standby's takeover once the lease lapses.
// A leaf without standbys has no lease handle and nothing to pump.
func (f *Fleet) replicate(tick int, lf *leaf, iv *invariants, v *Verdict) error {
	if ldr := lf.acting(); ldr != nil && ldr.node != nil && !ldr.stalled {
		// Renewal cannot change leadership here — the peer takes over
		// only through promote below — so an error is a lease I/O
		// failure, which is a harness fault.
		if _, err := ldr.node.Tick(); err != nil {
			return fmt.Errorf("chaos: leader lease renewal: %w", err)
		}
	}
	f.pumpRepl(lf)

	sby := lf.standby()
	if sby < 0 || lf.members[sby].rep.Gen() == 0 {
		// No replica, or one that has never synced: promoting it would
		// install an empty fleet, so it waits for a first snapshot.
		return nil
	}
	l, ok, err := lf.lease.Read()
	if err != nil {
		return fmt.Errorf("chaos: reading lease: %w", err)
	}
	if ok && !l.Expired(f.leaseNow()) {
		return nil
	}
	return f.promote(tick, lf, sby, iv, v)
}

// pumpRepl moves one batch of replication frames leader → standby.
// Session errors are not harness failures: the feed is dropped and the
// next tick redials with a fresh HELLO, exactly as dcmd's replication
// client reconnects.
func (f *Fleet) pumpRepl(lf *leaf) {
	ldr, sby := lf.acting(), lf.standby()
	if lf.replDown || ldr == nil || sby < 0 {
		return
	}
	rep := lf.members[sby].rep
	if lf.feed == nil {
		lf.feed = ldr.mgr.Store().NewFeed(rep.Hello())
	}
	frames, err := lf.feed.Pending(haPumpBatch)
	if err != nil {
		lf.feed = nil
		return
	}
	for _, fr := range frames {
		if f.scenario.BreakReplication && fr.Kind == store.ReplRec && fr.Rec != nil && fr.Rec.Node != nil {
			// The "broken guard": silently skew every node record in
			// flight. The replica applies and acks it happily — only
			// the replica_convergence check can tell.
			rec := *fr.Rec
			node := *rec.Node
			node.CapWatts += 17
			rec.Node = &node
			fr.Rec = &rec
		}
		ack, err := rep.Handle(fr)
		if err != nil {
			lf.feed = nil
			return
		}
		if ack != nil {
			lf.feed.Ack(*ack)
		}
	}
}

// promote fails lf over to member idx: crash its replica store, tear
// its journal at any pending cut, recover a manager from what survived,
// verify the recovered state against the harness's independent leader
// book (replica_convergence), then take the lease and re-anchor the
// shadow model at the new leadership. An old leader that still runs a
// manager is now deposed and duels the fence on its stale epoch — the
// contest single_writer referees.
func (f *Fleet) promote(tick int, lf *leaf, idx int, iv *invariants, v *Verdict) error {
	m := lf.members[idx]
	cursor := m.rep.Cursor()
	lf.feed = nil

	// The replicated journal inherits the primary's torn-tail rules:
	// kill the store without compaction and cut the tail where the
	// schedule says.
	m.st.Crash()
	m.st, m.rep = nil, nil
	lost, err := tearJournal(f.stateDir(m), lf.pendingTear)
	lf.pendingTear = 0
	if err != nil {
		return err
	}
	if uint64(lost) > cursor {
		return fmt.Errorf("chaos: replica tear lost %d records but cursor is %d", lost, cursor)
	}
	if cursor > uint64(len(f.shadow)) {
		return fmt.Errorf("chaos: replica cursor %d beyond shadow length %d", cursor, len(f.shadow))
	}
	v.ReplicaLostRecords += lost

	mgr, err := f.newManager(m)
	if err != nil {
		return err
	}
	got, _ := mgr.StoreState()
	// The expectation is independent of every replication frame the
	// standby saw: the base state the leadership started from, folded
	// with the records the leader journaled, up to what the replica
	// acknowledged minus what the tear destroyed. Records past the
	// cursor were never replicated — lost by design, which is exactly
	// what asynchronous replication promises.
	want := store.ReplayFrom(f.base, f.shadow[:int(cursor)-lost])
	iv.checkRecovered(tick, InvReplicaConvergence, got, want)
	if err := lf.takeLease(idx, mgr); err != nil {
		return err
	}

	// Re-anchor the leader book at the restored state: base is what
	// the new leader's store opened with, shadow restarts with the
	// records its promotion journaled — the announce round's setcaps
	// (every restored desired policy, name order), then the re-armed
	// budget.
	f.base = store.ReplayFrom(got, nil)
	f.shadow = f.shadow[:0]
	for _, st := range mgr.Nodes() {
		if rec := got.Nodes[st.Name]; rec.HaveCap {
			f.shadow = append(f.shadow, store.Record{Op: store.OpSetCap, Name: st.Name, Node: &rec})
		}
	}
	if w, g, ivl, ok := mgr.RestoredBudget(); ok {
		mgr.StartAutoBalance(w, g, ivl)
		f.shadow = append(f.shadow, store.Record{
			Op: store.OpBudget, Budget: &store.BudgetRecord{Watts: w, Group: g, Interval: ivl},
		})
	}
	f.setRegistered(got)
	v.Failovers++
	return nil
}

// killLeader murders lf's leader mid-budget-push: it allocates a
// rebalance, pushes (and journals) only the first half of the
// decreases-first order, then crashes and tears the dead journal. The
// torn records are cosmetic — a revived member resyncs from a snapshot,
// never its old journal — but counting them keeps the verdict honest
// about what the crash destroyed.
func (f *Fleet) killLeader(lf *leaf, tornBytes int, v *Verdict) error {
	ldr := lf.acting()
	if ldr == nil {
		return nil
	}
	if group := f.group(); len(group) > 0 {
		if allocs, err := ldr.mgr.AllocateBudget(f.budget, group); err == nil {
			half := ldr.mgr.PushOrder(allocs)[:len(allocs)/2]
			for _, alc := range half {
				// Push failures still journal the desired cap; the
				// shadow mirrors the journal, not the plant.
				_ = ldr.mgr.SetNodeCap(alc.Name, alc.CapWatts)
			}
			f.mirrorAllocs(half)
		}
	}
	lf.feed = nil
	ldr.stalled = false
	lost, err := f.crash(lf, lf.lead, tornBytes)
	if err != nil {
		return err
	}
	v.LostRecords += lost
	v.Crashes++
	return nil
}

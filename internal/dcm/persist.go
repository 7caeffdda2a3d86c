package dcm

import (
	"fmt"
	"sort"
	"time"

	"nodecap/internal/dcm/store"
	"nodecap/internal/ipmi"
)

// OpenStateDir attaches a durable store rooted at dir and restores the
// registry and desired policies it holds. Restored nodes start
// disconnected — the next Poll (or an explicit SetNodeCap) dials them,
// and the reconciliation sweep re-pushes each desired policy the BMC
// no longer reports (a BMC rebooted while the manager was down, or a
// freshly restarted manager whose nodes kept running).
//
// Call it once, before serving traffic; registry mutations and cap
// changes from then on are journaled synchronously.
func (m *Manager) OpenStateDir(dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("dcm: %w", err)
	}
	m.mu.Lock()
	if m.store != nil {
		m.mu.Unlock()
		st.Close()
		return fmt.Errorf("dcm: state dir already open")
	}
	m.store = st
	st.SetTelemetry(m.telReg, m.tel.trace)
	for name, rec := range st.State().Nodes {
		if _, dup := m.nodes[name]; dup {
			continue
		}
		n := &managedNode{
			name: name, addr: rec.Addr,
			busy: make(chan struct{}, 1),
			status: NodeStatus{
				Name: name, Addr: rec.Addr,
				MinCapWatts: rec.MinCapWatts, MaxCapWatts: rec.MaxCapWatts,
				LastError: "restored from state dir; not yet polled",
			},
		}
		if rec.HaveCap {
			n.desired = ipmi.PowerLimit{Enabled: rec.CapEnabled, CapWatts: rec.CapWatts}
			n.haveDesired = true
			n.status.CapWatts = rec.CapWatts
			n.status.CapEnabled = rec.CapEnabled
		}
		m.nodes[name] = n
	}
	m.byName = nil
	m.mu.Unlock()
	return nil
}

// RestoredBudget reports the auto-balance configuration the state dir
// held, so a restarted daemon can re-arm StartAutoBalance. ok is false
// when no budget was active.
func (m *Manager) RestoredBudget() (watts float64, group []string, interval time.Duration, ok bool) {
	m.mu.Lock()
	st := m.store
	m.mu.Unlock()
	if st == nil {
		return 0, nil, 0, false
	}
	b := st.State().Budget
	if b == nil {
		return 0, nil, 0, false
	}
	return b.Watts, append([]string(nil), b.Group...), b.Interval, true
}

// StoreState returns a deep copy of the attached store's durable state
// and reports whether a store is open. Recovery drills compare it
// against an independently maintained shadow of the journaled ops to
// prove round-trip integrity after a crash.
func (m *Manager) StoreState() (store.State, bool) {
	m.mu.Lock()
	st := m.store
	m.mu.Unlock()
	if st == nil {
		return store.State{}, false
	}
	return st.State(), true
}

// journalNode persists one node's registration + desired policy (or
// its removal). No-op without a store.
func (m *Manager) journalNode(op string, n *managedNode) error {
	m.mu.Lock()
	st := m.store
	var rec *store.NodeRecord
	if st != nil && op != store.OpRemoveNode {
		rec = &store.NodeRecord{
			Addr:        n.addr,
			MinCapWatts: n.status.MinCapWatts,
			MaxCapWatts: n.status.MaxCapWatts,
			HaveCap:     n.haveDesired,
			CapEnabled:  n.desired.Enabled,
			CapWatts:    n.desired.CapWatts,
		}
	}
	m.mu.Unlock()
	if st == nil {
		return nil
	}
	if err := st.Apply(store.Record{Op: op, Name: n.name, Node: rec}); err != nil {
		return fmt.Errorf("dcm: journaling %s %q: %w", op, n.name, err)
	}
	return nil
}

// journalBudget persists (or, with nil, clears) the auto-balance
// configuration. No-op without a store.
func (m *Manager) journalBudget(b *store.BudgetRecord) error {
	m.mu.Lock()
	st := m.store
	m.mu.Unlock()
	if st == nil {
		return nil
	}
	if b != nil {
		b.Group = append([]string(nil), b.Group...)
		sort.Strings(b.Group)
	}
	if err := st.Apply(store.Record{Op: store.OpBudget, Budget: b}); err != nil {
		return fmt.Errorf("dcm: journaling budget: %w", err)
	}
	return nil
}

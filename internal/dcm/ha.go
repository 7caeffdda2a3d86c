// High availability for the DCM control plane: a primary/standby
// manager pair shares a lease (store.LeaseFile) whose epoch is the
// fencing token stamped onto every cap push. Lease grants serialize
// under a file lock, so every epoch is unique — but the lease alone
// still cannot prevent split-brain: an ex-primary partitioned from the
// lease file keeps actuating on an epoch it no longer holds. So safety
// rests on the nodes: each BMC remembers the highest epoch that ever
// actuated it and rejects older ones (ipmi.CCStaleEpoch). A deposed
// primary's pushes are therefore refused by the plant itself, no
// matter what the deposed process believes about its lease.
//
// HANode is deliberately goroutine-free: the daemon (or the chaos
// harness) calls Tick on its own cadence, so failover timing is a pure
// function of the injected lease clock and replays bit-identically.
package dcm

import (
	"errors"
	"sort"
	"time"

	"nodecap/internal/dcm/store"
	"nodecap/internal/telemetry"
)

// Role is a manager's place in an HA pair.
type Role string

const (
	// RoleSolo is a manager outside any HA pair (the default). Its
	// pushes carry whatever epoch SetFencing installed — zero, for a
	// plain deployment, which every node admits.
	RoleSolo Role = "solo"
	// RolePrimary holds the lease and actuates the fleet.
	RolePrimary Role = "primary"
	// RoleStandby replicates the primary's journal and refuses every
	// mutation until promoted.
	RoleStandby Role = "standby"
)

// ErrNotLeader rejects a mutation sent to a standby manager.
var ErrNotLeader = errors.New("dcm: not the leader (standby refuses mutations)")

// SetFencing installs the manager's HA role and fencing epoch, and
// clears any previous fenced verdict. Every subsequent cap push is
// stamped with this epoch.
func (m *Manager) SetFencing(role Role, epoch uint64) {
	m.mu.Lock()
	m.role = role
	m.epoch = epoch
	m.fenced = false
	m.mu.Unlock()
}

// Role reports the manager's HA role.
func (m *Manager) Role() Role {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.role == "" {
		return RoleSolo
	}
	return m.role
}

// Epoch reports the fencing epoch stamped onto pushes.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Fenced reports whether any push since the last SetFencing was
// rejected by a node for carrying a stale epoch — positive proof a
// newer leader has actuated the fleet.
func (m *Manager) Fenced() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fenced
}

// Store exposes the open state store (nil without OpenStateDir) so a
// daemon can serve its replication feed to a standby.
func (m *Manager) Store() *store.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store
}

// noteFenced records a stale-epoch rejection. The connection stays up
// — the exchange completed, only the authority was refused — so no
// dropConn/backoff; the manager simply must stop believing it leads.
func (m *Manager) noteFenced(n *managedNode, staleEpoch uint64, err error) {
	m.mu.Lock()
	m.fenced = true
	n.status.LastError = err.Error()
	m.tel.fencedPushes.Inc()
	m.tel.trace.Append(telemetry.Event{
		Node: n.name, Kind: telemetry.EvFenced, N: int64(staleEpoch), Err: err.Error(),
	})
	m.mu.Unlock()
}

// noteLeaderChange traces a leadership transition.
func (m *Manager) noteLeaderChange(transition string, epoch uint64) {
	m.mu.Lock()
	m.tel.leaderChanges.Inc()
	m.tel.trace.Append(telemetry.Event{
		Kind: telemetry.EvLeaderChange, N: int64(epoch), Err: transition,
	})
	m.mu.Unlock()
}

// AnnounceEpoch re-pushes every node's desired policy under the
// manager's current epoch. The values are unchanged — the plants see
// the same caps — but each push advances the node's fencing watermark,
// so anything still in flight from a deposed leader is rejected from
// then on. Run on promotion, before the first rebalance. Nodes with no
// desired policy are skipped; their watermark advances on their first
// real push. The pushes go out as one wave (see pushWave). Push
// failures are joined and returned; reconciliation retries them.
func (m *Manager) AnnounceEpoch() error {
	m.mu.Lock()
	allocs := make([]Allocation, 0, len(m.nodes))
	for name, n := range m.nodes {
		if !n.haveDesired {
			continue
		}
		a := Allocation{Name: name}
		if n.desired.Enabled {
			a.CapWatts = n.desired.CapWatts
		}
		allocs = append(allocs, a)
	}
	m.mu.Unlock()
	// Deterministic fence order.
	sort.Slice(allocs, func(i, j int) bool { return allocs[i].Name < allocs[j].Name })
	return errors.Join(m.pushWave(allocs, nil)...)
}

// HANode drives one member of an HA pair through the lease state
// machine.
type HANode struct {
	// ID identifies this member in the lease file.
	ID string
	// Lease is the shared leadership lease (in the replicated state
	// dir's filesystem, or any path both members can reach).
	Lease *store.LeaseFile
	// TTL is the term granted on every acquire and renewal.
	TTL time.Duration
	// Mgr is the manager this member fences and promotes.
	Mgr *Manager
	// OnPromote, when set, runs after a successful promotion — the
	// fencing epoch installed and announced — so the daemon can re-arm
	// polling and auto-balance from the restored state.
	OnPromote func(epoch uint64)
}

// Start performs the initial lease attempt: the member comes up
// primary when the lease is free, expired, or last held by it, and
// standby otherwise.
func (h *HANode) Start() (Role, error) {
	l, ok, err := h.Lease.Acquire(h.ID, h.TTL)
	if err != nil {
		return "", err
	}
	if !ok {
		h.Mgr.SetFencing(RoleStandby, l.Epoch)
		return RoleStandby, nil
	}
	return RolePrimary, h.promote(l)
}

// Tick advances the member one step: a primary renews its lease (and
// steps down if it finds itself deposed); a standby attempts takeover.
// Reports whether leadership changed. Call on the daemon's heartbeat —
// comfortably inside the TTL for a primary, or takeover races the
// clock.
func (h *HANode) Tick() (changed bool, err error) {
	switch h.Mgr.Role() {
	case RolePrimary:
		return h.renew()
	case RoleStandby:
		return h.tryPromote()
	}
	return false, nil
}

func (h *HANode) renew() (bool, error) {
	l, ok, err := h.Lease.Acquire(h.ID, h.TTL)
	if err != nil {
		return false, err
	}
	if !ok {
		// Another member holds the lease: we were deposed while our
		// back was turned. Stop actuating — its announce round has
		// already fenced us at the nodes.
		h.Mgr.SetFencing(RoleStandby, l.Epoch)
		h.Mgr.noteLeaderChange("deposed", l.Epoch)
		return true, nil
	}
	if l.Epoch != h.Mgr.Epoch() {
		// Our own lease lapsed and the re-acquire bumped the epoch:
		// someone may have led in the gap, so re-fence and re-announce
		// as if freshly promoted.
		return true, h.promote(l)
	}
	return false, nil
}

func (h *HANode) tryPromote() (bool, error) {
	l, ok, err := h.Lease.Acquire(h.ID, h.TTL)
	if err != nil || !ok {
		return false, err
	}
	return true, h.promote(l)
}

// promote fences the manager at the lease's epoch, announces it to
// the fleet, and hands control to the daemon's OnPromote hook.
func (h *HANode) promote(l store.Lease) error {
	h.Mgr.SetFencing(RolePrimary, l.Epoch)
	h.Mgr.noteLeaderChange("promoted", l.Epoch)
	err := h.Mgr.AnnounceEpoch()
	if h.OnPromote != nil {
		h.OnPromote(l.Epoch)
	}
	return err
}

// StepDown releases the lease and demotes the manager so the peer can
// take over without waiting out the TTL (graceful shutdown).
func (h *HANode) StepDown() error {
	err := h.Lease.Release(h.ID)
	if h.Mgr.Role() == RolePrimary {
		epoch := h.Mgr.Epoch()
		h.Mgr.SetFencing(RoleStandby, epoch)
		h.Mgr.noteLeaderChange("stepped-down", epoch)
	}
	return err
}

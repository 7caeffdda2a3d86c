// Package dcm implements the Intel Data Center Manager role of the
// paper's architecture: a management server that connects to the BMCs
// of a fleet of nodes over IPMI, monitors their power consumption, and
// pushes power-capping policies.
//
// Beyond the single-node policies the study uses, the package also
// implements DCM's data-center feature — a group power budget divided
// among nodes by demand-proportional water-filling — because that is
// the deployment model (Section II-A) the product was actually sold
// for; the fielded-platform use of the paper is the single-node
// special case.
//
// Fault model: BMCs are remote devices on their own NICs and fail
// independently — they hang, reset, partition, and come back. The
// manager therefore bounds every exchange with the client's request
// timeout, polls nodes through a bounded worker pool so one stuck node
// cannot stall the sweep, drops a failed node's connection and redials
// it on a capped exponential backoff with jitter, and serializes all
// per-node I/O through an ownership token so a poll, a cap push, and a
// concurrent RemoveNode can never interleave frames or race a Close.
package dcm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nodecap/internal/dcm/store"
	"nodecap/internal/ipmi"
	"nodecap/internal/pool"
	"nodecap/internal/telemetry"
)

// BMC is the per-node management connection the manager drives.
// *ipmi.Client implements it; tests substitute fakes.
type BMC interface {
	GetDeviceID() (ipmi.DeviceInfo, error)
	GetPowerReading() (ipmi.PowerReading, error)
	SetPowerLimit(ipmi.PowerLimit) error
	GetPowerLimit() (ipmi.PowerLimit, error)
	GetPStateInfo() (ipmi.PStateInfo, error)
	GetGatingLevel() (int, error)
	GetCapabilities() (ipmi.Capabilities, error)
	GetHealth() (ipmi.Health, error)
	Close() error
}

// Dialer opens a BMC connection; injectable for tests.
type Dialer func(addr string) (BMC, error)

// DefaultDialer dials a real IPMI/TCP endpoint with the package
// default connect and request timeouts.
func DefaultDialer(addr string) (BMC, error) {
	return ipmi.Dial(addr)
}

// Manager tuning defaults.
const (
	DefaultPollConcurrency = 16
	DefaultRetryBaseDelay  = 500 * time.Millisecond
	DefaultRetryMaxDelay   = 30 * time.Second
	// DefaultStaleAfter is how long an unreachable node's last good
	// sample keeps counting as live demand in budget allocation.
	DefaultStaleAfter = 30 * time.Second
)

// Tier is a node's allocation priority class. High-tier nodes carry
// latency-critical serving work and outweigh low-tier (batch) nodes
// when a group budget is divided; see AllocateBudgetWeighted.
type Tier string

const (
	TierLow  Tier = "low"
	TierHigh Tier = "high"
)

// DefaultHighTierWeight is the demand multiplier a TierHigh node gets
// in budget allocation when no explicit weight is supplied: under a
// constrained budget a serving node's demand counts four times a batch
// node's, mirroring the in-node batch-first escalation order.
const DefaultHighTierWeight = 4.0

// ParseTier validates an operator-supplied tier name.
func ParseTier(s string) (Tier, error) {
	switch Tier(s) {
	case TierLow, TierHigh:
		return Tier(s), nil
	}
	return "", fmt.Errorf("dcm: unknown tier %q (want %q or %q)", s, TierLow, TierHigh)
}

// Sample is one monitoring observation.
type Sample struct {
	At           time.Time
	PowerWatts   float64
	AverageWatts float64
	FreqMHz      int
	PState       int
	GatingLevel  int
}

// NodeStatus is the manager's view of one node. CapWatts/CapEnabled
// are the *desired* policy (operator intent, persisted when a state
// dir is open); ReportedCapWatts/ReportedCapEnabled are what the BMC
// last reported, which reconciliation drives back toward desired.
type NodeStatus struct {
	Name        string
	Addr        string
	Reachable   bool
	CapWatts    float64
	CapEnabled  bool
	Last        Sample
	MinCapWatts float64
	MaxCapWatts float64

	// Tier is the node's allocation priority class (SetNodeTier, or
	// advertised by the platform's capabilities at registration).
	Tier Tier

	// Reconciliation telemetry: the BMC-reported policy as of the last
	// poll, and how often it disagreed with desired state (Drifts) and
	// was successfully re-pushed (Reconciles).
	ReportedCapWatts   float64
	ReportedCapEnabled bool
	Drifts             int
	Reconciles         int

	// BMC-reported defensive-controller health (GetHealth).
	FailSafe      bool
	SensorFaults  int
	InfeasibleCap bool

	// Health telemetry maintained by the fault-tolerant control loop.
	ConsecFailures int       // consecutive failed exchanges; 0 when healthy
	Reconnects     int       // successful redials since registration
	LastError      string    // most recent failure, empty when healthy
	LastOKAt       time.Time // last successful exchange
	NextRetryAt    time.Time // backoff gate for the next redial attempt

	// Gray-failure defense telemetry (breaker.go). Breaker is the
	// node's circuit-breaker state (closed/open/half-open/quarantined);
	// LatencyEWMA and LatencyP99 track sample-exchange latency;
	// BusySkips counts poll rounds skipped because another operation
	// owned the node's I/O token.
	Breaker      string
	BreakerOpens int
	LatencyEWMA  time.Duration
	LatencyP99   time.Duration
	BusySkips    int
}

// managedNode is one fleet entry. Locking discipline: status, history,
// removed, nextRetry and the bmc *pointer* are guarded by Manager.mu;
// *using* the bmc (any I/O, Close, or swapping the pointer) requires
// holding the node's ownership token (busy). RemoveNode marks the node
// removed under mu, then takes the token before closing, so an owner
// that rechecks removed after acquiring can never use a closed
// connection.
type managedNode struct {
	name, addr string
	busy       chan struct{} // capacity 1: per-node I/O ownership token
	bmc        BMC           // nil while disconnected
	removed    bool
	status     NodeStatus
	history    history
	nextRetry  time.Time

	// capMu serializes priority-lane cap pushes (fresh connections that
	// bypass the busy token when a slow poll owns it; see SetNodeCap).
	capMu sync.Mutex

	// consecSkips counts consecutive busy-skipped poll rounds (guarded
	// by Manager.mu); brk is the node's circuit breaker (breaker.go).
	consecSkips int
	brk         breaker

	// desired is the operator-intended policy; haveDesired
	// distinguishes "never set" (nothing to reconcile) from "cap
	// disabled" (uncapped IS the desired state and is re-pushed when a
	// BMC drifts). Guarded by Manager.mu.
	desired     ipmi.PowerLimit
	haveDesired bool
}

// acquire takes the node's ownership token, blocking behind any
// in-flight operation.
func (n *managedNode) acquire() { n.busy <- struct{}{} }

// tryAcquire takes the token only if it is free.
func (n *managedNode) tryAcquire() bool {
	select {
	case n.busy <- struct{}{}:
		return true
	default:
		return false
	}
}

func (n *managedNode) release() { <-n.busy }

// Manager is the DCM instance.
type Manager struct {
	dial Dialer

	// Clock supplies wall time for staleness accounting, backoff gates
	// and sample stamps; nil means time.Now. Injectable so deterministic
	// harnesses (internal/chaos) replay bit-identically — AllocateBudget
	// in particular must never consult the real clock, or a replayed
	// run's stale-node decisions depend on host scheduling.
	Clock func() time.Time

	mu    sync.Mutex
	nodes map[string]*managedNode
	// byName is nodes' values in name order, built by sortedLocked and
	// dropped wherever nodes changes; never modified in place, so a
	// sweep may keep reading it after releasing mu.
	byName []*managedNode
	rng    *rand.Rand

	// HistoryLimit bounds per-node history length; zero or less keeps
	// no history (NodeStatus.Last is kept regardless). A limit lowered
	// between polls trims each node on its next sample.
	HistoryLimit int
	// historySamples counts the samples retained across all nodes, for
	// the dcm_history_samples gauge. Guarded by mu.
	historySamples int
	// reachable counts the registered nodes whose status is Reachable,
	// for the dcm_nodes_reachable gauge: kept in step by AddNode,
	// RemoveNode and setReachable so the gauges never walk the node map.
	// Guarded by mu.
	reachable int

	// PollConcurrency bounds how many nodes one Poll sweep samples in
	// parallel (default DefaultPollConcurrency).
	PollConcurrency int

	// RetryBaseDelay and RetryMaxDelay shape the capped exponential
	// backoff between redial attempts to a failed node.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// StaleAfter is how long an unreachable node's frozen last sample
	// still counts as demand in AllocateBudget; beyond it the node is
	// granted only its platform minimum (default DefaultStaleAfter).
	StaleAfter time.Duration

	// Breaker tunes the per-node circuit breakers (breaker.go). The
	// zero value enables consecutive-failure tripping with defaults;
	// set FailureThreshold to -1 to disable breakers entirely.
	Breaker BreakerConfig

	// HedgeDelay, when > 0, races a duplicate cap push on a fresh
	// connection once the primary attempt has been in flight this long.
	// Pushes are idempotent and epoch-fenced, so the duplicate is safe;
	// 0 disables hedging.
	HedgeDelay time.Duration

	// PollBudget, when > 0, is the interval budget one Poll round is
	// expected to fit in. A round that overruns it raises the shed
	// level for subsequent rounds (brownout: open-breaker probes at
	// reduced cadence, history appends skipped); rounds back under
	// budget decay it. Drift reconciliation and cap pushes never shed.
	PollBudget time.Duration

	// BreakerHoldsPushes / BreakerNeverProbes deliberately mis-wire the
	// gray-failure defenses for harness self-tests (chaos
	// -break-breaker): pushes refuse to cross an open breaker, and open
	// breakers never grant the half-open probe. They exist to prove the
	// chaos checkers (cap_push_bounded, no_starvation) catch real
	// regressions; production paths never set them.
	BreakerHoldsPushes bool
	BreakerNeverProbes bool

	// shedLevel is the current brownout level (0 = none, capped at 2),
	// guarded by mu.
	shedLevel int

	// tierDefaults holds operator-preset tiers (PresetNodeTier) applied
	// when the named node registers, overriding the tier the platform
	// advertises. Guarded by mu.
	tierDefaults map[string]Tier

	// store, when non-nil, persists desired state (see OpenStateDir).
	store *store.Store

	// tel holds the metric handles and trace sink wired by
	// SetTelemetry; telReg keeps the registry so a later OpenStateDir
	// can wire the store. Guarded by mu.
	tel    managerTelemetry
	telReg *telemetry.Registry

	// HA state (see ha.go): the manager's role, the fencing epoch
	// stamped onto every cap push, and whether a push has been fenced
	// by a node (proof a newer leader exists). Guarded by mu.
	role   Role
	epoch  uint64
	fenced bool

	stopPoll    chan struct{}
	stopBalance chan struct{}
	pollWG      sync.WaitGroup
}

// NewManager builds a manager using dial (nil means DefaultDialer).
func NewManager(dial Dialer) *Manager {
	if dial == nil {
		dial = DefaultDialer
	}
	return &Manager{
		dial:            dial,
		nodes:           make(map[string]*managedNode),
		role:            RoleSolo,
		rng:             rand.New(rand.NewSource(1)),
		HistoryLimit:    4096,
		PollConcurrency: DefaultPollConcurrency,
		RetryBaseDelay:  DefaultRetryBaseDelay,
		RetryMaxDelay:   DefaultRetryMaxDelay,
		StaleAfter:      DefaultStaleAfter,
	}
}

// wallNow reads the manager's wall clock (Clock, or time.Now).
func (m *Manager) wallNow() time.Time {
	if m.Clock != nil {
		return m.Clock()
	}
	return time.Now()
}

// AddNode connects to a node's BMC and registers it under name.
func (m *Manager) AddNode(name, addr string) error {
	m.mu.Lock()
	if _, dup := m.nodes[name]; dup {
		m.mu.Unlock()
		return fmt.Errorf("dcm: node %q already registered", name)
	}
	m.mu.Unlock()

	bmc, err := m.dial(addr)
	if err != nil {
		return fmt.Errorf("dcm: connecting to %s: %w", addr, err)
	}
	caps, err := bmc.GetCapabilities()
	if err != nil {
		bmc.Close()
		return fmt.Errorf("dcm: querying %s capabilities: %w", addr, err)
	}

	m.mu.Lock()
	if _, dup := m.nodes[name]; dup {
		m.mu.Unlock()
		bmc.Close()
		return fmt.Errorf("dcm: node %q already registered", name)
	}
	tier := TierLow
	if caps.Tier == ipmi.TierHigh {
		tier = TierHigh
	}
	if preset, ok := m.tierDefaults[name]; ok {
		tier = preset
	}
	n := &managedNode{
		name: name, addr: addr, bmc: bmc,
		busy: make(chan struct{}, 1),
		status: NodeStatus{
			Name: name, Addr: addr, Reachable: true,
			MinCapWatts: caps.MinCapWatts, MaxCapWatts: caps.MaxCapWatts,
			Tier:     tier,
			Breaker:  BreakerClosed,
			LastOKAt: m.wallNow(),
		},
	}
	m.nodes[name] = n
	m.reachable++
	m.byName = nil
	m.mu.Unlock()
	m.updateFleetGauges()
	return m.journalNode(store.OpAddNode, n)
}

// RemoveNode drops a node, closing its connection. It waits for any
// in-flight operation on the node to finish, so the close can never
// race a poll or cap push mid-exchange.
func (m *Manager) RemoveNode(name string) error {
	m.mu.Lock()
	n, ok := m.nodes[name]
	if ok {
		if n.status.Reachable {
			m.reachable--
		}
		n.removed = true
		delete(m.nodes, name)
		m.byName = nil
		m.historySamples -= n.history.n
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("dcm: unknown node %q", name)
	}
	m.updateFleetGauges()
	jerr := m.journalNode(store.OpRemoveNode, n)
	n.acquire()
	defer n.release()
	m.mu.Lock()
	bmc := n.bmc
	n.bmc = nil
	m.mu.Unlock()
	if bmc != nil {
		if cerr := bmc.Close(); jerr == nil {
			jerr = cerr
		}
	}
	return jerr
}

// sortedLocked returns the registered nodes in name order, sorting only
// when the set has changed since the last call. m.mu must be held.
func (m *Manager) sortedLocked() []*managedNode {
	if m.byName == nil && len(m.nodes) > 0 {
		m.byName = make([]*managedNode, 0, len(m.nodes))
		for _, n := range m.nodes {
			m.byName = append(m.byName, n)
		}
		sort.Slice(m.byName, func(i, j int) bool { return m.byName[i].name < m.byName[j].name })
	}
	return m.byName
}

// Nodes lists statuses sorted by name.
func (m *Manager) Nodes() []NodeStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	nodes := m.sortedLocked()
	out := make([]NodeStatus, len(nodes))
	for i, n := range nodes {
		out[i] = n.status
	}
	return out
}

// DesiredCapSum sums the enabled desired caps across the fleet — the
// quantity the budget-conservation invariant audits. Unlike Nodes()
// it allocates nothing, so a per-tick auditor can call it at 10k-node
// scale without turning the audit loop into a garbage factory.
func (m *Manager) DesiredCapSum() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	for _, n := range m.nodes {
		if n.status.CapEnabled {
			sum += n.status.CapWatts
		}
	}
	return sum
}

// node fetches a registered node.
func (m *Manager) node(name string) (*managedNode, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return nil, fmt.Errorf("dcm: unknown node %q", name)
	}
	return n, nil
}

// backoff returns the redial delay after the given count of
// consecutive failures: capped exponential with jitter in
// [delay/2, delay], so it never exceeds RetryMaxDelay. Callers hold
// m.mu (the rng is guarded by it).
func (m *Manager) backoff(failures int) time.Duration {
	base, max := m.RetryBaseDelay, m.RetryMaxDelay
	if base <= 0 {
		base = DefaultRetryBaseDelay
	}
	if max <= 0 {
		max = DefaultRetryMaxDelay
	}
	d := base
	for i := 1; i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(m.rng.Int63n(int64(half)+1))
	}
	return d
}

// recordFailure marks one failed exchange, arms the backoff gate and
// feeds the circuit breaker.
func (m *Manager) recordFailure(n *managedNode, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setReachable(n, false)
	n.status.ConsecFailures++
	n.status.LastError = err.Error()
	now := m.wallNow()
	n.nextRetry = now.Add(m.backoff(n.status.ConsecFailures))
	n.status.NextRetryAt = n.nextRetry
	m.tel.backoffs.Inc()
	m.tel.trace.Append(telemetry.Event{
		Node: n.name, Kind: telemetry.EvBackoff,
		N: int64(n.status.ConsecFailures), Err: n.status.LastError,
	})
	m.brkOnFailure(n, now, err)
}

// setReachable flips n's reachability, keeping m.reachable in step. A
// removed node has already left the count. Callers hold m.mu.
func (m *Manager) setReachable(n *managedNode, up bool) {
	if n.status.Reachable != up && !n.removed {
		if up {
			m.reachable++
		} else {
			m.reachable--
		}
	}
	n.status.Reachable = up
}

// recordSuccess clears the failure state after a good exchange.
// Callers hold m.mu.
func (m *Manager) recordSuccess(n *managedNode) {
	m.setReachable(n, true)
	n.status.ConsecFailures = 0
	n.status.LastError = ""
	n.status.LastOKAt = m.wallNow()
	n.status.NextRetryAt = time.Time{}
	n.nextRetry = time.Time{}
}

// connect (re)establishes the node's BMC connection. The caller must
// hold the node's ownership token. Returns the live connection or the
// dial error (already recorded).
func (m *Manager) connect(n *managedNode) (BMC, error) {
	m.mu.Lock()
	if n.removed {
		m.mu.Unlock()
		return nil, fmt.Errorf("dcm: unknown node %q", n.name)
	}
	if n.bmc != nil {
		bmc := n.bmc
		m.mu.Unlock()
		return bmc, nil
	}
	m.mu.Unlock()

	bmc, err := m.dial(n.addr)
	if err != nil {
		m.recordFailure(n, err)
		return nil, fmt.Errorf("dcm: reconnecting to %s: %w", n.addr, err)
	}
	m.mu.Lock()
	if n.removed {
		m.mu.Unlock()
		bmc.Close()
		return nil, fmt.Errorf("dcm: unknown node %q", n.name)
	}
	n.bmc = bmc
	n.status.Reconnects++
	m.tel.redials.Inc()
	m.tel.trace.Append(telemetry.Event{
		Node: n.name, Kind: telemetry.EvRedial, N: int64(n.status.Reconnects),
	})
	m.mu.Unlock()
	return bmc, nil
}

// dropConn closes and forgets the node's connection after a failed
// exchange, forcing a redial on the next attempt. The caller must hold
// the ownership token.
func (m *Manager) dropConn(n *managedNode, bmc BMC) {
	bmc.Close()
	m.mu.Lock()
	if n.bmc == bmc {
		n.bmc = nil
	}
	m.mu.Unlock()
}

// SetNodeCap pushes a capping policy to one node. capWatts <= 0
// disables capping. An explicit operator action redials a disconnected
// node immediately, ignoring the poll loop's backoff gate.
//
// Desired state is recorded (and journaled, when a state dir is open)
// *before* the push: if the push fails, the intent survives and the
// reconciliation loop re-pushes it once the node is reachable again.
//
// The push is stamped with the manager's fencing epoch (ha.go); a
// node that has seen a newer leader rejects it with
// ipmi.ErrStaleEpoch, which marks the manager Fenced without dropping
// the connection — the exchange completed, only the authority was
// refused.
func (m *Manager) SetNodeCap(name string, capWatts float64) error {
	if math.IsNaN(capWatts) || math.IsInf(capWatts, 0) {
		// Refused before desired state changes: a NaN would read as
		// "disabled" and the next poll would uncap the node.
		return fmt.Errorf("dcm: cap %v W for %q is not finite", capWatts, name)
	}
	n, err := m.node(name)
	if err != nil {
		return err
	}
	lim := ipmi.PowerLimit{Enabled: capWatts > 0, CapWatts: capWatts}
	m.mu.Lock()
	if m.role == RoleStandby {
		m.mu.Unlock()
		return ErrNotLeader
	}
	lim.Epoch = m.epoch
	n.desired = lim
	n.haveDesired = true
	n.status.CapWatts = capWatts
	n.status.CapEnabled = lim.Enabled
	m.mu.Unlock()
	if err := m.journalNode(store.OpSetCap, n); err != nil {
		return err
	}
	if m.BreakerHoldsPushes {
		// Harness self-test misconfiguration: a defense layer that lets
		// breakers gate safety-critical pushes. The chaos cap_push_bounded
		// checker must catch the caps this withholds.
		m.mu.Lock()
		s := n.brk.stateName()
		m.mu.Unlock()
		if s == BreakerOpen || s == BreakerQuarantined {
			err := fmt.Errorf("dcm: breaker open for %q; push withheld (self-test)", name)
			m.capPushFailed(name, capWatts, err)
			return err
		}
	}
	if n.tryAcquire() {
		return m.pushShared(n, lim)
	}
	// Priority lane: another operation owns the busy token — typically
	// a poll mid-exchange with a slow BMC. A safety-critical cap push
	// must not queue behind best-effort telemetry, so it rides a fresh
	// connection instead. Safe beside the in-flight operation: pushes
	// are idempotent and epoch-fenced, and the fresh connection shares
	// no framing state with the token holder's.
	m.mu.Lock()
	m.tel.lanePushes.Inc()
	m.mu.Unlock()
	return m.pushFresh(n, lim)
}

// pushShared delivers a cap push over the node's registered connection.
// The caller must hold the busy token; pushShared releases it — from a
// goroutine when a hedged primary attempt is still in flight at return.
func (m *Manager) pushShared(n *managedNode, lim ipmi.PowerLimit) error {
	bmc, err := m.connect(n)
	if err != nil {
		n.release()
		m.capPushFailed(n.name, lim.CapWatts, err)
		return err
	}
	if m.HedgeDelay <= 0 {
		defer n.release()
		return m.finishPush(n, bmc, lim, true)
	}
	primary := make(chan error, 1)
	go func() {
		primary <- m.finishPush(n, bmc, lim, true)
		n.release()
	}()
	select {
	case err := <-primary:
		return err
	case <-time.After(m.HedgeDelay):
	}
	// The primary exchange is slow; race a duplicate on a fresh
	// connection. First success wins; if both fail, the hedge's error
	// is returned (the primary's outcome was recorded either way when
	// its exchange finally resolved).
	m.mu.Lock()
	m.tel.hedges.Inc()
	m.tel.trace.Append(telemetry.Event{Node: n.name, Kind: telemetry.EvHedge, Watts: lim.CapWatts})
	m.mu.Unlock()
	hedge := make(chan error, 1)
	go func() { hedge <- m.pushFresh(n, lim) }()
	select {
	case err := <-primary:
		if err == nil {
			return nil
		}
		return <-hedge
	case err := <-hedge:
		if err == nil {
			return nil
		}
		return <-primary
	}
}

// pushFresh is the priority lane: the push rides a dedicated fresh
// connection, serialized per node by capMu (bounding concurrent dials)
// but never waiting on the busy token.
func (m *Manager) pushFresh(n *managedNode, lim ipmi.PowerLimit) error {
	n.capMu.Lock()
	defer n.capMu.Unlock()
	m.mu.Lock()
	removed := n.removed
	m.mu.Unlock()
	if removed {
		return fmt.Errorf("dcm: unknown node %q", n.name)
	}
	bmc, err := m.dial(n.addr)
	if err != nil {
		m.recordFailure(n, err)
		m.capPushFailed(n.name, lim.CapWatts, err)
		return fmt.Errorf("dcm: reconnecting to %s: %w", n.addr, err)
	}
	defer bmc.Close()
	return m.finishPush(n, bmc, lim, false)
}

// finishPush executes one SetPowerLimit exchange and records its
// outcome. shared marks bmc as the node's registered connection
// (dropped on failure so the next attempt redials); a priority-lane
// bmc is owned and closed by the caller.
func (m *Manager) finishPush(n *managedNode, bmc BMC, lim ipmi.PowerLimit, shared bool) error {
	if err := bmc.SetPowerLimit(lim); err != nil {
		if errors.Is(err, ipmi.ErrStaleEpoch) {
			m.noteFenced(n, lim.Epoch, err)
			return fmt.Errorf("dcm: setting cap on %q: %w", n.name, err)
		}
		if shared {
			m.dropConn(n, bmc)
		}
		m.recordFailure(n, err)
		m.capPushFailed(n.name, lim.CapWatts, err)
		return fmt.Errorf("dcm: setting cap on %q: %w", n.name, err)
	}
	m.mu.Lock()
	if !n.removed {
		n.status.ReportedCapWatts = lim.CapWatts
		n.status.ReportedCapEnabled = lim.Enabled
		m.recordSuccess(n)
		if n.brk.stateName() == BreakerHalfOpen {
			m.brkClose(n)
		}
	}
	m.tel.capPushes.Inc()
	m.tel.trace.Append(telemetry.Event{
		Node: n.name, Kind: telemetry.EvCapPush, Watts: lim.CapWatts,
	})
	m.mu.Unlock()
	return nil
}

// SetNodeTier reclassifies a node's allocation priority. The tier only
// shapes future budget divisions (it is not pushed to the node); the
// change is traced so a fleet timeline shows why shares shifted.
func (m *Manager) SetNodeTier(name string, tier Tier) error {
	if tier != TierLow && tier != TierHigh {
		return fmt.Errorf("dcm: unknown tier %q", tier)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return fmt.Errorf("dcm: unknown node %q", name)
	}
	if n.status.Tier == tier {
		return nil
	}
	n.status.Tier = tier
	m.tel.trace.Append(telemetry.Event{
		Node: name, Kind: telemetry.EvTierSet,
		Err: string(tier), Watts: tierWeight(tier),
	})
	return nil
}

// PresetNodeTier records a tier for name, applied when the node
// registers (overriding the platform-advertised tier) and immediately
// if it is already registered — how dcmd's -tiers flag classifies a
// fleet before the nodes come up.
func (m *Manager) PresetNodeTier(name string, tier Tier) error {
	if tier != TierLow && tier != TierHigh {
		return fmt.Errorf("dcm: unknown tier %q", tier)
	}
	m.mu.Lock()
	if m.tierDefaults == nil {
		m.tierDefaults = make(map[string]Tier)
	}
	m.tierDefaults[name] = tier
	_, registered := m.nodes[name]
	m.mu.Unlock()
	if registered {
		return m.SetNodeTier(name, tier)
	}
	return nil
}

// tierWeight maps a tier to its default allocation weight.
func tierWeight(t Tier) float64 {
	if t == TierHigh {
		return DefaultHighTierWeight
	}
	return 1
}

// capPushFailed records cap-push failure telemetry. Callers must NOT
// hold m.mu.
func (m *Manager) capPushFailed(name string, capWatts float64, err error) {
	m.mu.Lock()
	m.tel.capPushFailures.Inc()
	m.tel.trace.Append(telemetry.Event{
		Node: name, Kind: telemetry.EvCapPushFail, Watts: capWatts, Err: err.Error(),
	})
	m.mu.Unlock()
}

// Poll performs one monitoring round across all nodes, updating
// statuses and history. Nodes are sampled through a bounded worker
// pool, so a slow or hung BMC delays only its own slot; a node with an
// operation already in flight is skipped this round rather than
// queued behind it.
func (m *Manager) Poll() {
	start := m.wallNow()
	m.mu.Lock()
	// Sweep in name order so the decision-trace events a sequential
	// sweep (PollConcurrency=1, as the chaos harness runs) appends are
	// deterministic run-to-run; with a concurrent pool the order is
	// merely a stable starting schedule.
	nodes := m.sortedLocked()
	workers := m.PollConcurrency
	budget := m.PollBudget
	shed := m.shedLevel
	tel := m.tel
	m.mu.Unlock()
	if workers <= 0 {
		workers = DefaultPollConcurrency
	}

	pool.ForEach(len(nodes), workers, func(i int) { m.pollNode(nodes[i], shed) })
	elapsed := m.wallNow().Sub(start)
	tel.polls.Inc()
	tel.pollSeconds.Observe(elapsed.Seconds())
	if budget > 0 {
		// Brownout control: a round that overran its interval budget
		// raises the shed level so the *next* round drops lowest-value
		// work first; rounds back under budget decay it one step at a
		// time. Drift reconciliation and cap pushes are never shed.
		m.mu.Lock()
		if elapsed > budget {
			if m.shedLevel < maxShedLevel {
				m.shedLevel++
				m.tel.sheds.Inc()
				m.tel.trace.Append(telemetry.Event{
					Kind: telemetry.EvShed, N: int64(m.shedLevel), Watts: elapsed.Seconds(),
				})
			}
		} else if m.shedLevel > 0 {
			m.shedLevel--
		}
		m.mu.Unlock()
	}
	m.updateFleetGauges()
}

// pollNode samples one node, redialing through the backoff gate when
// disconnected. shed is the brownout level the round runs under.
func (m *Manager) pollNode(n *managedNode, shed int) {
	if !n.tryAcquire() {
		// Another operation owns the node; skip this round. A skip is
		// normal once, but a streak means something (a hung exchange, a
		// push storm) is starving monitoring of this node — count it and
		// say so in the trace rather than staying silent.
		m.mu.Lock()
		n.status.BusySkips++
		n.consecSkips++
		m.tel.busySkips.Inc()
		if n.consecSkips == DefaultStarveSkips {
			m.tel.trace.Append(telemetry.Event{
				Node: n.name, Kind: telemetry.EvBusyStarve, N: int64(n.consecSkips),
			})
		}
		m.mu.Unlock()
		return
	}
	defer n.release()

	m.mu.Lock()
	n.consecSkips = 0
	if n.removed {
		m.mu.Unlock()
		return
	}
	now := m.wallNow()
	gated := n.bmc == nil && now.Before(n.nextRetry)
	allowed := m.brkAllow(n, now, shed)
	m.mu.Unlock()
	if gated || !allowed {
		return
	}

	bmc, err := m.connect(n)
	if err != nil {
		return // failure already recorded
	}
	t0 := m.wallNow()
	s, lim, h, err := sampleBMC(bmc)
	if err != nil {
		m.dropConn(n, bmc)
		m.recordFailure(n, err)
		return
	}
	m.noteExchange(n, m.wallNow().Sub(t0))
	s.At = m.wallNow()

	// Reconcile: the BMC's reported policy must match desired state.
	// A reboot (policy lost) or a write the node missed while the
	// manager was down shows up here; the policy is idempotently
	// re-pushed under the ownership token this goroutine already holds.
	m.mu.Lock()
	desired, reconcile := n.desired, n.haveDesired
	desired.Epoch = m.epoch // fencing token is stamped at push time
	standby := m.role == RoleStandby
	m.mu.Unlock()
	reconcile = reconcile && !standby && policyDrifted(desired, lim)
	if reconcile {
		m.mu.Lock()
		n.status.Drifts++
		m.tel.drifts.Inc()
		m.tel.trace.Append(telemetry.Event{
			Node: n.name, Kind: telemetry.EvDrift, Watts: lim.CapWatts,
		})
		m.mu.Unlock()
		if err := bmc.SetPowerLimit(desired); err != nil {
			if errors.Is(err, ipmi.ErrStaleEpoch) {
				m.noteFenced(n, desired.Epoch, err)
				return
			}
			m.dropConn(n, bmc)
			m.recordFailure(n, err)
			return
		}
		lim = desired
	}

	m.mu.Lock()
	if !n.removed {
		m.recordSuccess(n)
		if reconcile {
			n.status.Reconciles++
			m.tel.reconciles.Inc()
			m.tel.trace.Append(telemetry.Event{
				Node: n.name, Kind: telemetry.EvReconcile, Watts: desired.CapWatts,
			})
		}
		n.status.ReportedCapWatts = lim.CapWatts
		n.status.ReportedCapEnabled = lim.Enabled
		n.status.FailSafe = h.FailSafe
		n.status.SensorFaults = int(h.SensorFaults)
		n.status.InfeasibleCap = h.InfeasibleCap
		n.status.Last = s
		if shed < 1 {
			// History enrichment is the first work a brownout sheds;
			// the live sample above is always kept.
			m.historySamples += n.history.push(s, m.HistoryLimit)
		}
	}
	m.mu.Unlock()
}

// policyDrifted reports whether the BMC's reported policy disagrees
// with desired state. Watts compare at the wire's centiwatt
// resolution, so a round-tripped cap is never flagged.
func policyDrifted(desired, reported ipmi.PowerLimit) bool {
	if desired.Enabled != reported.Enabled {
		return true
	}
	if !desired.Enabled {
		return false
	}
	return math.Abs(desired.CapWatts-reported.CapWatts) > 0.011
}

// sampleBMC reads one monitoring observation plus the reported policy
// and controller health. The sample is returned unstamped; the caller
// sets At from the manager's clock.
func sampleBMC(bmc BMC) (Sample, ipmi.PowerLimit, ipmi.Health, error) {
	pr, err := bmc.GetPowerReading()
	if err != nil {
		return Sample{}, ipmi.PowerLimit{}, ipmi.Health{}, err
	}
	ps, err := bmc.GetPStateInfo()
	if err != nil {
		return Sample{}, ipmi.PowerLimit{}, ipmi.Health{}, err
	}
	g, err := bmc.GetGatingLevel()
	if err != nil {
		return Sample{}, ipmi.PowerLimit{}, ipmi.Health{}, err
	}
	lim, err := bmc.GetPowerLimit()
	if err != nil {
		return Sample{}, ipmi.PowerLimit{}, ipmi.Health{}, err
	}
	h, err := bmc.GetHealth()
	if err != nil {
		return Sample{}, ipmi.PowerLimit{}, ipmi.Health{}, err
	}
	return Sample{
		PowerWatts:   pr.CurrentWatts,
		AverageWatts: pr.AverageWatts,
		FreqMHz:      int(ps.FreqMHz),
		PState:       int(ps.Index),
		GatingLevel:  g,
	}, lim, h, nil
}

// History returns a copy of one node's monitoring history.
func (m *Manager) History(name string) ([]Sample, error) {
	n, err := m.node(name)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return n.history.samples(), nil
}

// StartPolling polls every interval until StopPolling.
func (m *Manager) StartPolling(interval time.Duration) {
	m.mu.Lock()
	if m.stopPoll != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	m.stopPoll = stop
	m.mu.Unlock()

	m.pollWG.Add(1)
	go func() {
		defer m.pollWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.Poll()
			}
		}
	}()
}

// StopPolling signals the background poller to halt. Close waits for
// all background goroutines to finish.
func (m *Manager) StopPolling() {
	m.mu.Lock()
	stop := m.stopPoll
	m.stopPoll = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}

// Close stops polling and rebalancing and disconnects every node,
// waiting for in-flight per-node operations to drain first. Idempotent:
// a second Close is a no-op.
func (m *Manager) Close() {
	m.shutdown(false)
}

// Crash is Close without the store's graceful-shutdown compaction: the
// state directory is left exactly as a power loss mid-run would leave
// it, so the next OpenStateDir must recover through journal replay.
// For crash-recovery drills (internal/chaos); production paths use
// Close.
func (m *Manager) Crash() {
	m.shutdown(true)
}

func (m *Manager) shutdown(crash bool) {
	m.StopPolling()
	m.stopBalanceLoop() // keep the journaled budget for the restart
	m.pollWG.Wait()
	m.mu.Lock()
	nodes := m.nodes
	m.nodes = make(map[string]*managedNode)
	m.byName = nil
	m.historySamples, m.reachable = 0, 0
	for _, n := range nodes {
		n.removed = true
	}
	m.mu.Unlock()
	for _, n := range nodes {
		n.acquire()
		m.mu.Lock()
		bmc := n.bmc
		n.bmc = nil
		m.mu.Unlock()
		if bmc != nil {
			bmc.Close()
		}
		n.release()
	}
	m.mu.Lock()
	st := m.store
	m.store = nil
	m.mu.Unlock()
	if st != nil {
		if crash {
			st.Crash()
		} else {
			st.Close()
		}
	}
}

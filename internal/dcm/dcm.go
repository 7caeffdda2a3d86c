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
// timeout, polls nodes in waves that put a chunk of reads on the wire
// before awaiting any, so stuck nodes cost a sweep about one timeout
// rather than stalling it, drops a failed node's connection and
// redials it on a capped exponential backoff with jitter, and
// serializes all per-node I/O through an ownership token so a poll, a
// cap push, and a concurrent RemoveNode can never interleave frames or
// race a Close.
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
	DefaultRetryBaseDelay = 500 * time.Millisecond
	DefaultRetryMaxDelay  = 30 * time.Second
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

	// PollConcurrency is ignored: a Poll sweep reads its nodes as waves
	// from one goroutine (see Poll).
	//
	// Deprecated: it remains only for callers that still set it.
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
		dial:           dial,
		nodes:          make(map[string]*managedNode),
		role:           RoleSolo,
		rng:            rand.New(rand.NewSource(1)),
		HistoryLimit:   4096,
		RetryBaseDelay: DefaultRetryBaseDelay,
		RetryMaxDelay:  DefaultRetryMaxDelay,
		StaleAfter:     DefaultStaleAfter,
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
	return m.attach(n, bmc, err)
}

// attach registers the connection a dial of n returned, or records the
// dial's failure, and returns what connect returns. The caller must
// hold the node's ownership token.
func (m *Manager) attach(n *managedNode, bmc BMC, err error) (BMC, error) {
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
// disables capping; a cap that is not finite, or above the
// ipmi.MaxWireWatts the wire carries, is refused before desired state
// changes. An explicit operator action redials a disconnected node
// immediately, ignoring the poll loop's backoff gate.
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
//
// SetNodeCap is a wave of one push (see pushWave).
func (m *Manager) SetNodeCap(name string, capWatts float64) error {
	if errs := m.pushWave([]Allocation{{Name: name, CapWatts: capWatts}}, nil); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// splitPusher is a BMC whose cap push splits into a send and an await,
// as *ipmi.Client's does, so a wave can put every node's push on the
// wire before it reads any ack. A BMC without it pushes synchronously
// when the wave awaits it.
type splitPusher interface {
	SendPowerLimit(ipmi.PowerLimit) error
	AwaitPowerLimit() error
}

// pushChunk is how many intents a wave records and journals in one
// store append before it sends their pushes; it bounds the journal
// buffer a wave leaves behind at any fleet size. A poll sweep reads its
// nodes in chunks of the same size.
const pushChunk = 64

// capPush is one push of a wave.
type capPush struct {
	n   *managedNode
	lim ipmi.PowerLimit
	// bmc is the registered connection that holds the push, and the
	// node's busy token with it, until the wave awaits it; nil once the
	// outcome is settled.
	bmc BMC
	// err is the settled outcome or, while bmc is set, the send's
	// failure.
	err error
}

// pushWave pushes allocs' caps in order and appends the failures, in
// the same order, to errs. It goes chunk by chunk: a chunk's intents
// are recorded as desired state and journaled in one append, and only
// then are its pushes sent. Every ack is awaited after the last chunk
// is sent, in push order, each within the request timeout armed at its
// send, so k hung nodes cost the wave about one timeout, not k. A node
// whose busy token another operation holds takes the priority lane
// inline at send.
func (m *Manager) pushWave(allocs []Allocation, errs []error) []error {
	pushes := make([]capPush, len(allocs))
	for lo := 0; lo < len(pushes); lo += pushChunk {
		chunk := pushes[lo:min(lo+pushChunk, len(pushes))]
		m.recordIntents(allocs[lo:], chunk)
		for i := range chunk {
			m.sendPush(&chunk[i])
		}
	}
	for i := range pushes {
		p := &pushes[i]
		if p.bmc != nil {
			p.err = m.awaitPush(p.n, p.bmc, p.lim, p.err)
		}
		if p.err != nil {
			errs = append(errs, p.err)
		}
	}
	return errs
}

// recordIntents checks each of the chunk's caps, records it as the
// node's desired state and journals the chunk's intents in one append.
// A push refused here, or whose intent could not be journaled, is
// settled with that error and never sent.
func (m *Manager) recordIntents(allocs []Allocation, chunk []capPush) {
	var recs [pushChunk]store.Record
	k := 0
	m.mu.Lock()
	st := m.store
	for i := range chunk {
		p, a := &chunk[i], allocs[i]
		if p.err = m.checkIntentLocked(a); p.err != nil {
			continue
		}
		n := m.nodes[a.Name]
		p.n = n
		p.lim = ipmi.PowerLimit{Enabled: a.CapWatts > 0, CapWatts: a.CapWatts, Epoch: m.epoch}
		n.desired, n.haveDesired = p.lim, true
		n.status.CapWatts, n.status.CapEnabled = a.CapWatts, p.lim.Enabled
		if st != nil {
			recs[k] = store.Record{Op: store.OpSetCap, Name: n.name, Node: n.recordLocked()}
			k++
		}
	}
	m.mu.Unlock()
	if k == 0 {
		return
	}
	if err := st.ApplyAll(recs[:k]); err != nil {
		for i := range chunk {
			if p := &chunk[i]; p.err == nil {
				p.err = fmt.Errorf("dcm: journaling %s %q: %w", store.OpSetCap, p.n.name, err)
			}
		}
	}
}

// checkIntentLocked refuses a cap before it becomes desired state: a
// NaN would read as "disabled" and the next poll would uncap the node,
// and a cap the wire cannot carry would fail every later push and
// reconcile. Callers hold m.mu.
func (m *Manager) checkIntentLocked(a Allocation) error {
	switch {
	case math.IsNaN(a.CapWatts) || math.IsInf(a.CapWatts, 0):
		return fmt.Errorf("dcm: cap %v W for %q is not finite", a.CapWatts, a.Name)
	case a.CapWatts > ipmi.MaxWireWatts:
		return fmt.Errorf("dcm: cap %v W for %q is above the %.2f W the wire carries", a.CapWatts, a.Name, ipmi.MaxWireWatts)
	}
	if _, ok := m.nodes[a.Name]; !ok {
		return fmt.Errorf("dcm: unknown node %q", a.Name)
	}
	if m.role == RoleStandby {
		return ErrNotLeader
	}
	return nil
}

// sendPush starts p. With the node's busy token free it takes the
// token, which p holds until its await, and a splitting connection
// writes the frame now. Otherwise the push takes the priority lane and
// is settled here.
func (m *Manager) sendPush(p *capPush) {
	if p.err != nil {
		return
	}
	n, lim := p.n, p.lim
	if m.BreakerHoldsPushes {
		// Harness self-test misconfiguration: a defense layer that lets
		// breakers gate safety-critical pushes. The chaos cap_push_bounded
		// checker must catch the caps this withholds.
		m.mu.Lock()
		s := n.brk.stateName()
		m.mu.Unlock()
		if s == BreakerOpen || s == BreakerQuarantined {
			p.err = fmt.Errorf("dcm: breaker open for %q; push withheld (self-test)", n.name)
			m.capPushFailed(n.name, lim.CapWatts, p.err)
			return
		}
	}
	if !n.tryAcquire() {
		// Priority lane: another operation owns the busy token — typically
		// a poll mid-exchange with a slow BMC. A safety-critical cap push
		// must not queue behind best-effort telemetry, so it rides a fresh
		// connection instead. Safe beside the in-flight operation: pushes
		// are idempotent and epoch-fenced, and the fresh connection shares
		// no framing state with the token holder's.
		m.mu.Lock()
		m.tel.lanePushes.Inc()
		m.mu.Unlock()
		p.err = m.pushFresh(n, lim)
		return
	}
	bmc, err := m.connect(n)
	if err != nil {
		n.release()
		m.capPushFailed(n.name, lim.CapWatts, err)
		p.err = err
		return
	}
	p.bmc = bmc
	if s, ok := bmc.(splitPusher); ok {
		p.err = s.SendPowerLimit(lim)
	}
}

// awaitPush completes a push sendPush started on the node's registered
// connection — reading its ack, or running the whole exchange when the
// connection cannot split — and records the outcome. sendErr is the
// send's failure. awaitPush releases the busy token sendPush took: from
// a goroutine when a hedged primary attempt is still in flight at
// return.
func (m *Manager) awaitPush(n *managedNode, bmc BMC, lim ipmi.PowerLimit, sendErr error) error {
	if m.HedgeDelay <= 0 {
		defer n.release()
		return m.finishPush(n, bmc, lim, true, completePush(bmc, lim, sendErr))
	}
	primary := make(chan error, 1)
	go func() {
		primary <- m.finishPush(n, bmc, lim, true, completePush(bmc, lim, sendErr))
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

// completePush is the exchange left after sendPush: the ack of a sent
// frame, or the whole exchange on a connection that cannot split.
func completePush(bmc BMC, lim ipmi.PowerLimit, sendErr error) error {
	s, ok := bmc.(splitPusher)
	switch {
	case !ok:
		return bmc.SetPowerLimit(lim)
	case sendErr != nil:
		return sendErr
	}
	return s.AwaitPowerLimit()
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
	return m.finishPush(n, bmc, lim, false, bmc.SetPowerLimit(lim))
}

// finishPush records the outcome err of one SetPowerLimit exchange on
// bmc. shared marks bmc as the node's registered connection (dropped
// on failure so the next attempt redials); a priority-lane bmc is
// owned and closed by the caller.
func (m *Manager) finishPush(n *managedNode, bmc BMC, lim ipmi.PowerLimit, shared bool, err error) error {
	if err != nil {
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
// statuses and history. Nodes are read in name order as waves of
// pushChunk: a chunk's status requests all go on the wire before the
// first response is awaited, and each response is awaited under the
// deadline armed at its send, so k hung BMCs in a chunk cost it about
// one request timeout. The chunk's redials are dialed together, so k
// connects that hang cost it about one connect timeout more. A node
// with an operation already in flight is skipped this round rather
// than queued behind it.
func (m *Manager) Poll() {
	start := m.wallNow()
	m.mu.Lock()
	// The sweep's name order makes the decision-trace events it appends
	// deterministic run-to-run.
	nodes := m.sortedLocked()
	budget := m.PollBudget
	shed := m.shedLevel
	bound := m.awaitBoundLocked()
	tel := m.tel
	m.mu.Unlock()

	for lo := 0; lo < len(nodes); lo += pushChunk {
		m.pollChunk(nodes[lo:min(lo+pushChunk, len(nodes))], shed, bound)
	}
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

// awaitBoundLocked is how long a sweep's first pass waits for each
// read, from its send: the breaker's SlowThreshold, so that a read not
// answered by then is charged from its send (see pollChunk). Zero —
// await each read to the end — when the latency trip is off, or when
// the manager runs on an injected Clock, which the connection's
// deadlines cannot follow: with bound > 0 the send times the manager
// reads are real time. Callers hold m.mu.
func (m *Manager) awaitBoundLocked() time.Duration {
	if m.Clock != nil || m.Breaker.disabled() {
		return 0
	}
	return m.Breaker.SlowThreshold
}

// statusSplitter is a BMC whose status read splits into a send and an
// await, as *ipmi.Client's does, so a sweep can put a chunk's reads on
// the wire before it awaits any. Its await can stop at a bound and
// leave the read in flight (ipmi.ErrStillAwaiting). A BMC without it
// makes the five Get calls when the sweep awaits it.
type statusSplitter interface {
	SendStatus() error
	AwaitStatusBy(time.Time) (ipmi.NodeStatus, error)
}

// pollRead is one node's status read in a sweep's chunk.
type pollRead struct {
	n *managedNode
	// bmc is the registered connection that holds the read, and the
	// node's busy token with it, until the sweep awaits it; nil for a
	// node not read this sweep.
	bmc BMC
	// sent is the node's own send time, from its gate (or, after a
	// redial, from the new connection) through its request on the wire;
	// sentAt is the clock read that ends it. err is the send's failure.
	sent   time.Duration
	sentAt time.Time
	err    error
	// redial: n passed its gates with no connection, and the read waits
	// for the chunk's dials. late: the read was not answered within the
	// first pass's bound.
	redial, late bool
}

// pollChunk reads at most pushChunk nodes as one wave: every read is
// sent, the chunk's redials are dialed together and their reads sent,
// then every read is awaited in order. The reads live on the stack, so
// a sweep allocates nothing per node.
//
// A read is awaited in two passes when bound > 0. Awaits run in name
// order, so over a socket a node's answer may arrive while an earlier
// node is awaited, and its own await then takes no time. The first
// pass takes each answer that came within bound of its send, or that
// is already on the connection, and charges the node its own send and
// await; an unanswered read stays in flight. The second pass awaits
// those and charges each the span from its send, which holds no other
// node's send but may hold an earlier slow node's await — a span past
// bound either way, so every slow node is seen slow.
func (m *Manager) pollChunk(nodes []*managedNode, shed int, bound time.Duration) {
	var reads [pushChunk]pollRead
	chunk := reads[:len(nodes)]
	redial := false
	for i, n := range nodes {
		if m.sendRead(&chunk[i], n, shed) {
			redial = true
		}
	}
	if redial {
		m.redialReads(chunk)
	}
	late := false
	for i := range chunk {
		if r := &chunk[i]; r.bmc != nil && !m.awaitRead(r, shed, bound) {
			late = true
		}
	}
	if !late {
		return
	}
	for i := range chunk {
		if r := &chunk[i]; r.late {
			m.awaitRead(r, shed, 0)
		}
	}
}

// sendRead starts n's status read into r. Busy-skip accounting, the
// backoff gate and the breaker decide here whether n is read this
// sweep. A node that is read keeps its busy token in r until its
// await, and a splitting connection writes the request now. A
// disconnected node that passes its gates is left for
// redialReads, and sendRead reports it. shed is the brownout level the
// round runs under.
func (m *Manager) sendRead(r *pollRead, n *managedNode, shed int) (redial bool) {
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
		return false
	}

	m.mu.Lock()
	n.consecSkips = 0
	if n.removed {
		m.mu.Unlock()
		n.release()
		return false
	}
	now := m.wallNow()
	bmc := n.bmc
	gated := bmc == nil && now.Before(n.nextRetry)
	allowed := m.brkAllow(n, now, shed)
	m.mu.Unlock()
	if gated || !allowed {
		n.release()
		return false
	}
	r.n = n
	if bmc == nil {
		r.redial = true
		return true
	}
	m.startRead(r, bmc, now)
	return false
}

// redialReads dials the nodes of chunk that sendRead left for a
// redial, all at once, so k connects that hang cost the chunk one
// connect timeout, not k. Then, in name order, it records each dial as
// connect does and sends the read on the new connection. A read's send
// time starts after its dial: a slow connect is not a slow exchange.
func (m *Manager) redialReads(chunk []pollRead) {
	type dialed struct {
		bmc BMC
		err error
	}
	got := make([]dialed, len(chunk))
	var wg sync.WaitGroup
	for i := range chunk {
		if r := &chunk[i]; r.redial {
			wg.Add(1)
			go func(i int, addr string) {
				defer wg.Done()
				got[i].bmc, got[i].err = m.dial(addr)
			}(i, r.n.addr)
		}
	}
	wg.Wait()
	for i := range chunk {
		r := &chunk[i]
		if !r.redial {
			continue
		}
		bmc, err := m.attach(r.n, got[i].bmc, got[i].err)
		if err != nil {
			r.n.release()
			continue // failure already recorded
		}
		m.startRead(r, bmc, m.wallNow())
	}
}

// startRead sends r's status read on bmc, when bmc splits, and stamps
// the node's own send time from start.
func (m *Manager) startRead(r *pollRead, bmc BMC, start time.Time) {
	r.bmc = bmc
	if s, ok := bmc.(statusSplitter); ok {
		r.err = s.SendStatus()
	}
	r.sentAt = m.wallNow()
	r.sent = r.sentAt.Sub(start)
}

// awaitRead completes the read sendRead started — reading the response,
// or making the whole read on a connection that cannot split — records
// the sample and releases the node's busy token. With bound > 0 a read
// not answered within bound of its send stays in flight, marked late,
// and awaitRead reports it undone; pollChunk awaits it again with no
// bound. A drifted policy is re-pushed here, on the session and token
// the read holds.
func (m *Manager) awaitRead(r *pollRead, shed int, bound time.Duration) (done bool) {
	n, bmc := r.n, r.bmc
	if r.err != nil {
		m.dropConn(n, bmc)
		m.recordFailure(n, r.err)
		n.release()
		return true
	}
	// The breaker is charged the node's own send and await; a late
	// read, the span from its send (see pollChunk).
	t0 := r.sentAt
	var by time.Time
	if !r.late {
		t0 = m.wallNow()
		if bound > 0 {
			by = r.sentAt.Add(bound)
		}
	}
	st, err := readStatus(bmc, by)
	if errors.Is(err, ipmi.ErrStillAwaiting) {
		r.late = true
		return false
	}
	defer n.release()
	if err != nil {
		m.dropConn(n, bmc)
		m.recordFailure(n, err)
		return true
	}
	at := m.wallNow()
	m.noteExchange(n, r.sent+at.Sub(t0))
	s := Sample{
		At:           at,
		PowerWatts:   st.Reading.CurrentWatts,
		AverageWatts: st.Reading.AverageWatts,
		FreqMHz:      int(st.PState.FreqMHz),
		PState:       int(st.PState.Index),
		GatingLevel:  st.Gating,
	}
	lim, h := st.Limit, st.Health

	// Reconcile: the BMC's reported policy must match desired state.
	// A reboot (policy lost) or a write the node missed while the
	// manager was down shows up here; the policy is idempotently
	// re-pushed under the ownership token this read already holds.
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
				return true
			}
			m.dropConn(n, bmc)
			m.recordFailure(n, err)
			return true
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
	return true
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

// readStatus is a read's await: AwaitStatusBy(by) on a connection
// that splits, or the five Get calls, in ReadStatus's order up to the
// first failure, on one that does not.
func readStatus(bmc BMC, by time.Time) (st ipmi.NodeStatus, err error) {
	if s, ok := bmc.(statusSplitter); ok {
		return s.AwaitStatusBy(by)
	}
	if st.Reading, err = bmc.GetPowerReading(); err != nil {
		return st, err
	}
	if st.PState, err = bmc.GetPStateInfo(); err != nil {
		return st, err
	}
	if st.Gating, err = bmc.GetGatingLevel(); err != nil {
		return st, err
	}
	if st.Limit, err = bmc.GetPowerLimit(); err != nil {
		return st, err
	}
	st.Health, err = bmc.GetHealth()
	return st, err
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

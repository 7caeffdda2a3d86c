// Package daemon assembles the Data Center Manager's control plane:
// the managers, HA promotions and shard tree behind cmd/dcmd. Daemon
// is the process dcmd runs. The exported functions are the assembly
// rules it follows, and the chaos harness calls the same ones in its
// fixed per-tick order, without sockets or timers (DESIGN §6b, §13).
package daemon

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/dcm/store"
	"nodecap/internal/ipmi"
	"nodecap/internal/shard"
	"nodecap/internal/telemetry"
)

// NewManager builds a manager dialing through dial, on the shared
// telemetry, tuned by tune, journaling into dir ("" = not at all).
func NewManager(dial dcm.Dialer, reg *telemetry.Registry, trace *telemetry.Trace, dir string, tune func(*dcm.Manager)) (*dcm.Manager, error) {
	mgr := dcm.NewManager(dial)
	tune(mgr)
	mgr.SetTelemetry(reg, trace)
	if dir != "" {
		if err := mgr.OpenStateDir(dir); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	return mgr, nil
}

// Lead arms mgr's group budget and returns what it armed (nil when
// nothing). A cold start's -budget and -group win over a journaled
// budget: the command line is the operator's newest word. Without them
// (a promoting standby, a restart without the flags) the journaled
// budget is re-armed, so no leader silently drops the fleet's budget.
func Lead(mgr *dcm.Manager, watts float64, group []string, every time.Duration) *store.BudgetRecord {
	b := &store.BudgetRecord{Watts: watts, Group: group, Interval: every}
	if watts <= 0 || len(group) == 0 {
		var ok bool
		if b.Watts, b.Group, b.Interval, ok = mgr.RestoredBudget(); !ok {
			return nil
		}
	}
	mgr.StartAutoBalance(b.Watts, b.Group, b.Interval)
	return b
}

// NewHANode is an HA member's lease handle over mgr. onPromote runs
// after every promotion has fenced and announced the manager; nil
// means Promote.
func NewHANode(id string, lease *store.LeaseFile, ttl time.Duration, mgr *dcm.Manager, onPromote func(epoch uint64)) *dcm.HANode {
	h := &dcm.HANode{ID: id, Lease: lease, TTL: ttl, Mgr: mgr, OnPromote: onPromote}
	if onPromote == nil {
		h.OnPromote = func(epoch uint64) { Promote(h.Mgr, epoch) }
	}
	return h
}

// Promote runs at every promotion of mgr to primary at epoch: a cold
// start, a standby's takeover of its sealed replica, a self-lapse. It
// stamps a generation from the epoch and the state dir's open counter
// (SetGenForEpoch), fresh even across a crash-restart that live-renews
// the epoch, so no standby resumes across a leadership or process
// boundary by splicing histories: it resyncs from a snapshot.
func Promote(mgr *dcm.Manager, epoch uint64) {
	if st := mgr.Store(); st != nil {
		st.SetGenForEpoch(epoch)
	}
}

// MayContend reports whether a member in role may contend for the
// lease: not a standby whose replica rep (nil = none) never synced, for
// it would lead an empty fleet while the real one runs headless. A
// restarted standby that recovered its journal has a generation
// (store.RecoverReplica): its state is the best surviving copy.
func MayContend(role dcm.Role, rep *store.Replica) bool {
	return role != dcm.RoleStandby || rep == nil || rep.Gen() != 0
}

// MaxLeaves bounds a tree: LeafName's two digits keep lexical order
// equal to index order, which OpenTree's leaf check relies on.
const MaxLeaves = 99

// LeafName names a tree's i'th leaf manager.
func LeafName(i int) string { return fmt.Sprintf("leaf-%02d", i) }

// CheckShards refuses a leaf count outside [0, MaxLeaves] (0 = flat).
func CheckShards(n int) error {
	if n < 0 || n > MaxLeaves {
		return fmt.Errorf("%d: a tree runs 0 to %d leaves, so that leaf names sort in index order", n, MaxLeaves)
	}
	return nil
}

// OpenTree opens the aggregator over leaves from the shard map
// journaled at snapPath ("" = none) if it names exactly those leaves,
// else from a fresh ring seeded by seed, and re-binds it to the leaf
// managers in live (Tree.Rebind): lost map-owned nodes re-register,
// journal-only nodes route through the ring, and leaves absent from
// live are seized once setup (nil = none) has configured the tree. A
// nil tree means the map would not load; otherwise err says why a
// journaled map was passed over and joins the re-bind's failures.
func OpenTree(seed uint64, leaves []string, live map[string]*dcm.Manager, transport shard.BatchTransport, snapPath string, setup func(*shard.Tree)) (*shard.Tree, int, error) {
	st := shard.TreeState{Seed: seed}
	for _, name := range leaves {
		st.Leaves = append(st.Leaves, shard.LeafRecord{Name: name})
	}
	var passed error
	if snapPath != "" {
		snap, err := shard.LoadSnapshot(snapPath)
		if err == nil && !slices.EqualFunc(snap.Leaves, st.Leaves, func(a, b shard.LeafRecord) bool { return a.Name == b.Name }) {
			err = fmt.Errorf("its %d leaves are not the %d this tree runs", len(snap.Leaves), len(leaves))
		}
		if err == nil {
			st = snap
		} else if !errors.Is(err, fs.ErrNotExist) {
			passed = fmt.Errorf("shard map %s not restorable, ring rebuilt: %w", snapPath, err)
		}
	}
	t, err := shard.NewTreeFromState(st, transport, snapPath)
	if err != nil {
		return nil, 0, err
	}
	if setup != nil {
		setup(t)
	}
	moved, err := t.Rebind(live)
	return t, moved, errors.Join(passed, err)
}

// Options holds every dcmd flag; tests build them directly.
type Options struct {
	Listen      string
	MetricsAddr string
	Poll        time.Duration
	Budget      float64
	Group       string
	Rebalance   time.Duration
	ConnectTO   time.Duration
	RequestTO   time.Duration
	RetryBase   time.Duration
	RetryMax    time.Duration
	StateDir    string
	StaleAfter  time.Duration
	Tiers       string

	// Gray-failure defense (DESIGN §12), each 0 = off or the default.
	BreakerFailures int
	SlowThreshold   time.Duration
	BreakerOpen     time.Duration
	HedgeDelay      time.Duration
	PollBudget      time.Duration

	// HA pair wiring: the primary serves ReplicaAddr, a standby pulls
	// StandbyOf, and both share the Lease file (default: inside the state
	// dir — correct only when that dir itself is shared).
	ReplicaAddr string
	StandbyOf   string
	Lease       string
	HAID        string
	LeaseTTL    time.Duration

	// Sharded control plane (DESIGN §13): Shards > 0 leaf managers under
	// an aggregator cascading -budget every Aggregator (0 = only on
	// dcmctl budget pushes).
	Shards     int
	Aggregator time.Duration
}

// DefaultLeaseTTL is the leadership term: long enough that a busy
// primary never misses three renewal heartbeats, short enough that
// failover is prompt.
const DefaultLeaseTTL = 3 * time.Second

// HAEnabled reports whether the options put the daemon in an HA pair.
func (o Options) HAEnabled() bool { return o.ReplicaAddr != "" || o.StandbyOf != "" }

// LeasePath resolves the shared lease location.
func (o Options) LeasePath() string { return cmp.Or(o.Lease, store.LeasePath(o.StateDir)) }

// ID resolves this member's lease identity.
func (o Options) ID() string { return cmp.Or(o.HAID, o.Listen) }

// tune sets every daemon-built manager's knobs, so the primary, the
// standby placeholder and a promoted standby's rebuilt manager match.
func (o Options) tune(mgr *dcm.Manager) {
	mgr.RetryBaseDelay = o.RetryBase
	mgr.RetryMaxDelay = o.RetryMax
	mgr.StaleAfter = o.StaleAfter
	mgr.Breaker = dcm.BreakerConfig{
		FailureThreshold: o.BreakerFailures,
		SlowThreshold:    o.SlowThreshold,
		OpenTimeout:      o.BreakerOpen,
	}
	mgr.HedgeDelay = o.HedgeDelay
	mgr.PollBudget = o.PollBudget
}

// Daemon is a running dcmd instance; tests drive it in-process.
type Daemon struct {
	mu    sync.Mutex // guards mgr/replicaSt swaps at promotion and close
	mgr   *dcm.Manager
	srv   *dcm.Server
	reg   *telemetry.Registry
	trace *telemetry.Trace

	// Set by Start: the bound addresses (empty when not serving), a
	// standby's replication state and the -shards tree (else nil).
	ControlAddr string
	MetricsAddr string
	ReplAddr    string
	Replica     *store.Replica
	Tree        *shard.Tree

	httpSrv *http.Server

	// What every manager is built from; group is -group split.
	opts  Options
	group []string
	dial  dcm.Dialer
	logf  func(format string, args ...any)

	// HA machinery (nil outside an HA pair).
	haNode     *dcm.HANode
	replSrv    *store.ReplServer
	replClient *store.ReplClient
	replicaSt  *store.Store // standby's replicated store; nil once promoted

	// The -shards leaf managers; mgr is nil in this mode.
	shLeaves []*dcm.Manager

	// stop ends the every() loops (lease heartbeat, budget cascade).
	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup
	closed   bool
}

// Start builds and launches a daemon from opts (a nil dial is the real
// IPMI dialer). Every shape comes up through this one path — validate,
// build the managers and make the acting ones lead, serve, start the
// loops — and differs only in the dcm.Control it serves.
func Start(opts Options, dial dcm.Dialer, logf func(format string, args ...any)) (*Daemon, error) {
	if logf == nil {
		logf = log.Printf
	}
	switch {
	case opts.HAEnabled() && opts.StateDir == "":
		return nil, fmt.Errorf("dcmd: -replica-addr/-standby-of require -state-dir (the journal is what replicates)")
	case opts.Shards > 0 && opts.HAEnabled():
		return nil, fmt.Errorf("dcmd: -shards is incompatible with -replica-addr/-standby-of (the sharded tree is its own availability story)")
	case opts.Shards > 0 && opts.Group != "":
		return nil, fmt.Errorf("dcmd: -group has no meaning under -shards (the budget group is the whole tree)")
	case opts.Shards > 0 && opts.Aggregator > 0 && opts.Budget <= 0:
		return nil, fmt.Errorf("dcmd: -aggregator needs -budget (the cascade divides the datacenter budget)")
	case math.IsNaN(opts.Budget) || math.IsInf(opts.Budget, 0):
		return nil, fmt.Errorf("dcmd: -budget %v is not a finite wattage", opts.Budget)
	case opts.Poll <= 0:
		return nil, fmt.Errorf("dcmd: -poll %v is not a positive interval", opts.Poll)
	case opts.Budget > 0 && opts.Group != "" && opts.Rebalance <= 0:
		return nil, fmt.Errorf("dcmd: -rebalance %v is not a positive interval (-budget arms auto-balancing)", opts.Rebalance)
	}
	if err := CheckShards(opts.Shards); err != nil {
		return nil, fmt.Errorf("dcmd: -shards %w", err)
	}
	d := &Daemon{
		reg:   telemetry.NewRegistry(),
		trace: telemetry.NewTrace(telemetry.DefaultTraceCapacity),
		opts:  opts, dial: dial, logf: logf,
		stop: make(chan struct{}),
	}
	if opts.Group != "" {
		d.group = strings.Split(opts.Group, ",")
		if err := dcm.CheckGroup(d.group); err != nil {
			return nil, fmt.Errorf("dcmd: -group: %w", err)
		}
	}
	// Register the wire-level series up front so the scrape surface is
	// stable whether or not the default dialer is in use.
	ipmiReqs := d.reg.Counter("ipmi_requests_total")
	ipmiFails := d.reg.Counter("ipmi_request_failures_total")
	if dial == nil {
		d.dial = func(addr string) (dcm.BMC, error) {
			c, err := ipmi.DialTimeout(addr, opts.ConnectTO, opts.RequestTO)
			if err != nil {
				return nil, err
			}
			c.SetCounters(ipmiReqs, ipmiFails)
			return c, nil
		}
	}
	if opts.LeaseTTL <= 0 {
		d.opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.HAEnabled() {
		d.haNode = NewHANode(opts.ID(), store.NewLeaseFile(opts.LeasePath()), d.opts.LeaseTTL, nil, d.promote)
	}

	var control dcm.Control
	var err error
	switch {
	case opts.Shards > 0:
		control, err = d.tree()
	case opts.StandbyOf != "":
		control, err = d.standby()
	default:
		control, err = d.flat()
	}
	if err == nil {
		err = d.serve(control)
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	// The loops start last: promotion swaps what d.srv serves.
	if d.haNode != nil {
		// Leaves a healthy primary two spare renewals per term.
		d.every(max(d.opts.LeaseTTL/3, time.Millisecond), d.heartbeat)
	}
	if d.Tree != nil && opts.Aggregator > 0 {
		// Each pass re-divides the budget from the leaves' latest demand,
		// so caps follow load between dcmctl interventions.
		d.every(opts.Aggregator, func() {
			if _, err := d.Tree.Rebalance(opts.Budget); err != nil {
				logf("dcmd: budget cascade: %v", err)
			}
		})
		logf("dcmd: cascading %.0f W across %d leaves every %v", opts.Budget, opts.Shards, opts.Aggregator)
	}
	return d, nil
}

// Handle serves one control-plane request in-process.
func (d *Daemon) Handle(req dcm.Request) dcm.Response { return d.srv.Handle(req) }

// Manager is the acting manager (nil in a tree); promotion swaps it.
func (d *Daemon) Manager() *dcm.Manager {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mgr
}

// newManager builds a manager with the daemon's knobs and the -tiers
// presets, journaling into dir ("" = not at all).
func (d *Daemon) newManager(dir string) (*dcm.Manager, error) {
	mgr, err := NewManager(d.dial, d.reg, d.trace, dir, d.opts.tune)
	if err != nil {
		return nil, err
	}
	if n := len(mgr.Nodes()); n > 0 {
		d.logf("dcmd: restored %d node(s) from %s; reconciling caps on the next poll", n, dir)
	}
	// After the state dir, so presets reach restored nodes immediately
	// (nodes registering later pick their preset up at AddNode).
	if err := applyTiers(mgr, d.opts.Tiers); err != nil {
		mgr.Close()
		return nil, err
	}
	return mgr, nil
}

// lead makes mgr an acting manager: arm its budget (Lead), start
// polling, and serve the replication feed when -replica-addr is set.
func (d *Daemon) lead(mgr *dcm.Manager, budget float64, group []string) error {
	if b := Lead(mgr, budget, group, d.opts.Rebalance); b != nil {
		d.logf("dcmd: auto-balancing %.0f W across %v every %v", b.Watts, b.Group, b.Interval)
	}
	mgr.StartPolling(d.opts.Poll)
	if d.opts.ReplicaAddr == "" {
		return nil
	}
	rs := store.NewReplServer(mgr.Store())
	raddr, err := rs.Listen(d.opts.ReplicaAddr)
	if err != nil {
		return fmt.Errorf("dcmd: replica listen: %w", err)
	}
	d.replSrv, d.ReplAddr = rs, raddr
	d.logf("dcmd: serving replication feed on %s", raddr)
	return nil
}

// every runs fn on its interval until the daemon stops.
func (d *Daemon) every(interval time.Duration, fn func()) {
	d.loops.Add(1)
	go func() {
		defer d.loops.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// serve listens for the control plane and, with -metrics-addr, for
// /metrics + /trace.
func (d *Daemon) serve(control dcm.Control) error {
	d.srv = dcm.NewServer(control)
	addr, err := d.srv.Listen(d.opts.Listen)
	if err != nil {
		return fmt.Errorf("dcmd: listen: %w", err)
	}
	d.ControlAddr = addr
	if d.opts.MetricsAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", d.opts.MetricsAddr)
	if err != nil {
		return fmt.Errorf("dcmd: metrics listen: %w", err)
	}
	d.MetricsAddr = ln.Addr().String()
	d.httpSrv = &http.Server{Handler: telemetry.Handler(d.reg, d.trace)}
	go d.httpSrv.Serve(ln)
	d.logf("dcmd: metrics on http://%s/metrics, trace on /trace", d.MetricsAddr)
	return nil
}

// flat is the one-manager shape, alone or as the primary of an HA pair.
func (d *Daemon) flat() (dcm.Control, error) {
	mgr, err := d.newManager(d.opts.StateDir)
	if err != nil {
		return nil, err
	}
	d.mgr = mgr
	if d.haNode != nil {
		// Take the lease before actuating anything. Losing it means a live
		// primary leads and this member should have been the standby.
		d.haNode.Mgr = mgr
		role, err := d.haNode.Start()
		if err != nil {
			return nil, fmt.Errorf("dcmd: lease: %w", err)
		}
		if role != dcm.RolePrimary {
			return nil, fmt.Errorf("dcmd: lease %s is held by another live primary; start this member with -standby-of", d.opts.LeasePath())
		}
		d.logf("dcmd: primary at epoch %d (lease %s)", mgr.Epoch(), d.opts.LeasePath())
	}
	return mgr, d.lead(mgr, d.opts.Budget, d.group)
}

// standby is the hot-standby member of an HA pair: it replicates the
// primary's journal into its own state dir and serves only read-side
// ops until the primary's lease lapses and promote takes over.
func (d *Daemon) standby() (dcm.Control, error) {
	st, err := store.Open(d.opts.StateDir)
	if err != nil {
		return nil, fmt.Errorf("dcmd: opening replica state dir: %w", err)
	}
	d.replicaSt = st
	// A restarted standby resumes replication at its persisted cursor.
	d.Replica = store.RecoverReplica(st, d.opts.StateDir)
	if g, c := d.Replica.Gen(), d.Replica.Cursor(); g != 0 {
		d.logf("dcmd: standby resuming replication at gen %d cursor %d", g, c)
	}
	// A placeholder knows no nodes and refuses every mutation, but
	// answers "leader" so operators can see who to talk to.
	mgr, err := d.newManager("")
	if err != nil {
		return nil, err
	}
	mgr.SetFencing(dcm.RoleStandby, 0)
	d.mgr, d.haNode.Mgr = mgr, mgr
	d.replClient = store.NewReplClient(d.opts.StandbyOf, d.Replica)
	d.replClient.Start()
	d.logf("dcmd: standby of %s (lease %s); replicating into %s", d.opts.StandbyOf, d.opts.LeasePath(), d.opts.StateDir)
	return mgr, nil
}

// promote is every HA member's OnPromote hook, run once HANode holds
// the lease and has fenced d.mgr. A standby's first promotion seals the
// replicated journal, rebuilds a real manager over it, announces the
// epoch to every node, has it lead, and swaps it into the control plane.
func (d *Daemon) promote(epoch uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.replicaSt == nil || d.closed {
		Promote(d.mgr, epoch) // no rebuild: HANode already re-fenced and re-announced d.mgr
		return
	}
	d.replClient.Stop()
	d.replicaSt.Close() // compacts: the state dir reopens from one clean snapshot
	d.replicaSt = nil
	// From here the dir journals this member's own records: a later
	// standby lifetime resuming the old claim would splice histories.
	if err := store.ClearReplicaMeta(d.opts.StateDir); err != nil {
		d.logf("dcmd: promotion: clearing replica resume point: %v", err)
	}
	mgr, err := d.newManager(d.opts.StateDir)
	if err != nil {
		// Stay a fenced placeholder rather than lead with no state: the
		// fleet is headless until an operator intervenes, but the nodes
		// keep enforcing their caps.
		d.logf("dcmd: promotion at epoch %d failed reopening %s: %v", epoch, d.opts.StateDir, err)
		return
	}
	mgr.SetFencing(dcm.RolePrimary, epoch)
	Promote(mgr, epoch)
	if err := mgr.AnnounceEpoch(); err != nil {
		// Unreachable nodes miss the announce now; reconciliation
		// re-pushes (and thereby fences) them as they return.
		d.logf("dcmd: promotion: announcing epoch %d: %v", epoch, err)
	}
	if err := d.lead(mgr, 0, nil); err != nil {
		d.logf("dcmd: promotion: %v", err)
	}
	placeholder := d.mgr
	d.mgr, d.haNode.Mgr = mgr, mgr
	d.srv.SetControl(mgr)
	placeholder.Close()
	d.logf("dcmd: promoted to primary at epoch %d", epoch)
}

// heartbeat drives the lease state machine one step.
func (d *Daemon) heartbeat() {
	if !MayContend(d.haNode.Mgr.Role(), d.Replica) {
		return
	}
	changed, err := d.haNode.Tick()
	if err != nil {
		d.logf("dcmd: lease: %v", err)
	}
	if changed {
		d.logf("dcmd: now %s at epoch %d", d.haNode.Mgr.Role(), d.haNode.Mgr.Epoch())
	}
}

// shardSeed fixes a fresh ring's seed: restarts resume from the
// snapshot, and a fresh ring only needs every member to agree.
const shardSeed = 1

// tree is the two-level shape (DESIGN §13): -shards leaf managers under
// an aggregator, with -state-dir journaling each leaf (leaf-NN/) and
// the shard map, so a restart resumes ownership where it left off. A
// node that fails to re-bind re-registers when the operator re-adds it.
func (d *Daemon) tree() (dcm.Control, error) {
	dir, snapPath := d.opts.StateDir, ""
	if dir != "" {
		snapPath = shard.SnapshotPathIn(dir)
	}
	names := make([]string, d.opts.Shards)
	live := make(map[string]*dcm.Manager, len(names))
	for i := range names {
		names[i] = LeafName(i)
		leafDir := ""
		if dir != "" {
			leafDir = filepath.Join(dir, names[i])
		}
		mgr, err := d.newManager(leafDir) // every leaf holds every -tiers preset
		if err != nil {
			return nil, err
		}
		d.shLeaves = append(d.shLeaves, mgr)
		live[names[i]] = mgr
	}
	t, _, err := OpenTree(shardSeed, names, live, nil, snapPath, nil)
	if t == nil {
		return nil, err
	}
	if err != nil {
		d.logf("dcmd: opening the aggregator: %v", err)
	}
	for _, mgr := range d.shLeaves {
		if err := d.lead(mgr, 0, nil); err != nil {
			return nil, err
		}
	}
	d.Tree = t
	d.logf("dcmd: aggregator over %d leaf shard(s) at epoch %d", len(names), t.Epoch())
	return t, nil
}

// applyTiers parses the -tiers flag ("NAME=high,NAME2=low") into tier
// presets honoured as each named node registers.
func applyTiers(mgr *dcm.Manager, spec string) error {
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, tierStr, ok := strings.Cut(pair, "=")
		if !ok || name == "" {
			return fmt.Errorf("dcmd: bad -tiers entry %q (want NAME=high|low)", pair)
		}
		tier, err := dcm.ParseTier(tierStr)
		if err != nil {
			return fmt.Errorf("dcmd: bad -tiers entry %q: %w", pair, err)
		}
		if err := mgr.PresetNodeTier(name, tier); err != nil {
			return err
		}
	}
	return nil
}

// Shutdown drains the daemon gracefully: the lease heartbeat stops,
// the lease is released so the peer can take over without waiting out
// the TTL, replication winds down, and Close compacts the journal into
// one clean snapshot (Manager.Close → Store.Close).
func (d *Daemon) Shutdown() {
	d.stopLoops()
	if d.haNode != nil {
		if err := d.haNode.StepDown(); err != nil {
			d.logf("dcmd: releasing lease: %v", err)
		}
	}
	d.Close()
}

// stopLoops ends the every() loops and waits for them. Idempotent.
func (d *Daemon) stopLoops() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.loops.Wait()
}

// Close tears the daemon down (loops, HTTP and replication first, then
// the control plane, then the managers and their pollers). Idempotent,
// and safe on a daemon that never finished starting. Unlike Shutdown it
// does not touch the lease: a SIGKILL'd or crashed primary leaves its
// lease to expire, and Close models every non-graceful path.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	mgr, replSrv, replicaSt := d.mgr, d.replSrv, d.replicaSt
	d.replicaSt = nil
	d.mu.Unlock()

	d.stopLoops()
	if d.replClient != nil {
		d.replClient.Stop()
	}
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	if replSrv != nil {
		replSrv.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if mgr != nil {
		mgr.Close()
	}
	for _, m := range d.shLeaves {
		m.Close()
	}
	if replicaSt != nil {
		replicaSt.Close()
	}
}

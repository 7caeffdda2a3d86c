// Command dcmd runs the Data Center Manager: it maintains IPMI
// connections to a fleet of simulated nodes (see cmd/nodesimd),
// monitors their power, and exposes the JSON control plane that
// cmd/dcmctl drives.
//
// Usage:
//
//	dcmd -listen 127.0.0.1:9650 -poll 1s -metrics-addr 127.0.0.1:9651
//
// With -state-dir the registry, desired caps and any group budget are
// journaled crash-safely; a restarted dcmd reloads them and reconciles
// every node's live policy back to the desired state within one poll.
//
// With -metrics-addr the daemon serves /metrics (Prometheus text
// exposition) and /trace (NDJSON control-decision trace) over HTTP.
//
// # High availability
//
// Two daemons sharing a lease file (a shared filesystem path, -lease)
// form a primary/standby pair:
//
//	dcmd -state-dir /srv/a -replica-addr :9660 -lease /shared/dcm.lease
//	dcmd -state-dir /srv/b -standby-of primary:9660 -lease /shared/dcm.lease
//
// The primary streams every journal record to the standby over the
// replication link and stamps every cap push with its lease epoch; the
// nodes reject pushes carrying an older epoch, so a deposed primary
// cannot actuate the fleet no matter what it believes about its lease.
// When the primary stops renewing (crash, partition from the lease),
// the standby replays its replicated journal, takes the lease at a
// higher epoch, re-announces it to every node, re-arms the journaled
// budget, and takes over polling. SIGTERM/SIGINT shut down gracefully:
// polling drains, the journal compacts, and the lease is released so
// the peer can take over without waiting out the TTL.
//
// # Sharded control plane
//
// With -shards N one daemon runs N leaf managers under a budget
// aggregator (DESIGN §13):
//
//	dcmd -shards 4 -state-dir /srv/dcm -budget 40000 -aggregator 5s
//
// Every node is owned by exactly one leaf, chosen by a consistent-hash
// ring; dcmctl talks to the aggregator, which routes per-node ops to the
// owner, merges fleet listings, and cascades the budget across the
// leaves (on every "dcmctl budget" push, and on the -aggregator
// interval). The state dir holds one journal per leaf (leaf-NN/) and
// the shard map (shardmap.snap); a restarted daemon re-binds its leaves
// to the journaled map and resumes with the same ownership. -shards
// refuses the HA flags and -group.
//
// All three shapes — flat, HA pair member, sharded — come up through
// the same start path and are served through the same dcm.Control seam.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/dcm/store"
	"nodecap/internal/ipmi"
	"nodecap/internal/shard"
	"nodecap/internal/telemetry"
)

// options holds every dcmd flag, separated from flag parsing so tests
// can build configurations directly.
type options struct {
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

	// Gray-failure defense (DESIGN §12). BreakerFailures trips a node's
	// circuit breaker after that many consecutive failed exchanges
	// (0 = the dcm default, negative disables breakers entirely);
	// SlowThreshold arms the latency trip — consecutive successful
	// exchanges slower than this also open the breaker (0 = off);
	// BreakerOpen is the open hold before a half-open probe (0 = the
	// retry-max backoff ceiling); HedgeDelay races a fresh-connection
	// cap push against a shared-path push stalled this long (0 = off);
	// PollBudget arms brownout shedding when a poll sweep overruns it
	// (0 = off).
	BreakerFailures int
	SlowThreshold   time.Duration
	BreakerOpen     time.Duration
	HedgeDelay      time.Duration
	PollBudget      time.Duration

	// HA pair wiring. ReplicaAddr serves the replication feed (primary
	// side); StandbyOf pulls a primary's feed and waits to take over;
	// Lease is the shared lease file both members can reach (default:
	// inside the state dir — correct only when the state dir itself is
	// shared); HAID names this member in the lease; LeaseTTL is the
	// leadership term.
	ReplicaAddr string
	StandbyOf   string
	Lease       string
	HAID        string
	LeaseTTL    time.Duration

	// Sharded control plane (DESIGN §13). Shards > 0 runs that many
	// leaf managers owning consistent-hash shards of the fleet under a
	// budget-cascading aggregator; Aggregator is the cascade interval
	// (0 = cascade only when dcmctl pushes a budget; requires -budget
	// when set). Incompatible with the HA pair flags and with -group
	// (the budget group is the whole tree).
	Shards     int
	Aggregator time.Duration
}

// parseFlags parses args into options (no global flag state, so tests
// can call it repeatedly).
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("dcmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.Listen, "listen", "127.0.0.1:9650", "control-plane address")
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "HTTP address for /metrics and /trace (empty = disabled)")
	fs.DurationVar(&o.Poll, "poll", time.Second, "monitoring poll interval")
	fs.Float64Var(&o.Budget, "budget", 0, "group power budget in watts (0 = no auto-balancing)")
	fs.StringVar(&o.Group, "group", "", "comma-separated node names the budget covers")
	fs.DurationVar(&o.Rebalance, "rebalance", 5*time.Second, "auto-balance interval")
	fs.DurationVar(&o.ConnectTO, "connect-timeout", ipmi.DefaultConnectTimeout, "BMC TCP connect timeout")
	fs.DurationVar(&o.RequestTO, "request-timeout", ipmi.DefaultRequestTimeout, "per-exchange BMC request timeout")
	fs.DurationVar(&o.RetryBase, "retry-base", dcm.DefaultRetryBaseDelay, "initial redial backoff for a failed node")
	fs.DurationVar(&o.RetryMax, "retry-max", dcm.DefaultRetryMaxDelay, "backoff ceiling for a failed node")
	fs.StringVar(&o.StateDir, "state-dir", "", "durable state directory: registry, caps and budget survive restarts")
	fs.DurationVar(&o.StaleAfter, "stale-after", dcm.DefaultStaleAfter, "age after which an unreachable node's demand stops counting in budgets")
	fs.StringVar(&o.Tiers, "tiers", "", "comma-separated NAME=high|low priority presets applied as nodes register")
	fs.IntVar(&o.BreakerFailures, "breaker-failures", 0, "consecutive failed exchanges that open a node's circuit breaker (0 = default, negative = breakers off)")
	fs.DurationVar(&o.SlowThreshold, "slow-threshold", 0, "exchange latency over which consecutive successful-but-slow polls open the breaker (0 = latency trip off)")
	fs.DurationVar(&o.BreakerOpen, "breaker-open", 0, "open-breaker hold before a single half-open probe (0 = the -retry-max ceiling)")
	fs.DurationVar(&o.HedgeDelay, "hedge-delay", 0, "hedge a cap push over a fresh connection when the shared path stalls this long (0 = no hedging)")
	fs.DurationVar(&o.PollBudget, "poll-budget", 0, "poll sweep duration that arms brownout shedding of low-value work when overrun (0 = no shedding)")
	fs.StringVar(&o.ReplicaAddr, "replica-addr", "", "address to serve the journal replication feed on (HA primary side)")
	fs.StringVar(&o.StandbyOf, "standby-of", "", "primary's replication address; run as hot standby and take over when its lease lapses")
	fs.StringVar(&o.Lease, "lease", "", "shared leadership lease file (default: <state-dir>/"+store.LeaseFileName+")")
	fs.StringVar(&o.HAID, "ha-id", "", "this member's name in the lease (default: the -listen address)")
	fs.DurationVar(&o.LeaseTTL, "lease-ttl", DefaultLeaseTTL, "leadership lease term; a primary that misses renewals this long is deposed")
	fs.IntVar(&o.Shards, "shards", 0, "run a sharded control plane: this many leaf managers own consistent-hash shards under a budget-cascading aggregator (0 = flat)")
	fs.DurationVar(&o.Aggregator, "aggregator", 0, "aggregator budget-cascade interval in sharded mode (0 = cascade only on dcmctl budget pushes; requires -budget)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

// DefaultLeaseTTL is the leadership term: long enough that a busy
// primary never misses three renewal heartbeats, short enough that
// failover is prompt.
const DefaultLeaseTTL = 3 * time.Second

// haEnabled reports whether the options put the daemon in an HA pair.
func (o options) haEnabled() bool { return o.ReplicaAddr != "" || o.StandbyOf != "" }

// leasePath resolves the shared lease location.
func (o options) leasePath() string {
	if o.Lease != "" {
		return o.Lease
	}
	return store.LeasePath(o.StateDir)
}

// haID resolves this member's lease identity.
func (o options) haID() string {
	if o.HAID != "" {
		return o.HAID
	}
	return o.Listen
}

// leaseTTL resolves the lease term.
func (o options) leaseTTL() time.Duration {
	if o.LeaseTTL <= 0 {
		return DefaultLeaseTTL
	}
	return o.LeaseTTL
}

// tune applies the manager knobs every dcmd-built manager shares —
// retry backoff, poll parallelism, staleness, and the gray-failure
// defense — so the primary, the standby placeholder, and a promoted
// standby's rebuilt manager all run the same configuration.
func (o options) tune(mgr *dcm.Manager) {
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

// daemon is a running dcmd instance; tests drive it in-process.
type daemon struct {
	mu    sync.Mutex // guards mgr/replicaSt swaps at promotion and close
	mgr   *dcm.Manager
	srv   *dcm.Server
	reg   *telemetry.Registry
	trace *telemetry.Trace

	ControlAddr string
	MetricsAddr string // empty when disabled
	ReplAddr    string // bound replication-feed address (empty when not serving)

	httpSrv *http.Server

	// opts/dial/logf are retained so a promoted standby builds its real
	// manager with the configuration the daemon was started with.
	opts options
	dial dcm.Dialer
	logf func(format string, args ...any)

	// HA machinery (nil outside an HA pair).
	haNode     *dcm.HANode
	replSrv    *store.ReplServer
	replClient *store.ReplClient
	rep        *store.Replica
	replicaSt  *store.Store // standby's replicated store; nil once promoted

	// Sharded control plane (nil/empty outside -shards mode): the
	// aggregator tree and its leaf managers. mgr is nil in this mode —
	// the tree owns dispatch.
	shTree   *shard.Tree
	shLeaves []*dcm.Manager

	// stop ends the every() loops (lease heartbeat, budget cascade).
	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup
	closed   bool
}

// start builds and launches a daemon from opts. A nil dial uses the
// real IPMI dialer (with wire-level request counters); tests inject
// their own. Every shape comes up through this one path — validate,
// build the shape's managers (newManager) and make the acting ones
// lead, serve, then start the loops — and differs only in which
// dcm.Control it serves: flat, standby or tree.
func start(opts options, dial dcm.Dialer, logf func(format string, args ...any)) (*daemon, error) {
	if logf == nil {
		logf = log.Printf
	}
	switch {
	case opts.haEnabled() && opts.StateDir == "":
		return nil, fmt.Errorf("dcmd: -replica-addr/-standby-of require -state-dir (the journal is what replicates)")
	case opts.Shards > 0 && opts.haEnabled():
		return nil, fmt.Errorf("dcmd: -shards is incompatible with -replica-addr/-standby-of (the sharded tree is its own availability story)")
	case opts.Shards > 0 && opts.Group != "":
		return nil, fmt.Errorf("dcmd: -group has no meaning under -shards (the budget group is the whole tree)")
	case opts.Shards > 0 && opts.Aggregator > 0 && opts.Budget <= 0:
		return nil, fmt.Errorf("dcmd: -aggregator needs -budget (the cascade divides the datacenter budget)")
	case opts.Shards > 99:
		return nil, fmt.Errorf("dcmd: -shards %d: at most 99 leaves", opts.Shards)
	case math.IsNaN(opts.Budget) || math.IsInf(opts.Budget, 0):
		return nil, fmt.Errorf("dcmd: -budget %v is not a finite wattage", opts.Budget)
	}
	if opts.Group != "" {
		if err := dcm.CheckGroup(strings.Split(opts.Group, ",")); err != nil {
			return nil, fmt.Errorf("dcmd: -group: %w", err)
		}
	}
	d := &daemon{
		reg:   telemetry.NewRegistry(),
		trace: telemetry.NewTrace(telemetry.DefaultTraceCapacity),
		opts:  opts, dial: dial, logf: logf,
		stop: make(chan struct{}),
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
	if opts.haEnabled() {
		d.haNode = &dcm.HANode{
			ID:        opts.haID(),
			Lease:     store.NewLeaseFile(opts.leasePath()),
			TTL:       opts.leaseTTL(),
			OnPromote: d.promote,
		}
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
		d.every(max(opts.leaseTTL()/3, time.Millisecond), d.heartbeat)
	}
	if d.shTree != nil && opts.Aggregator > 0 {
		// Each pass re-divides the datacenter budget from the leaves'
		// latest demand summaries, so caps follow load between dcmctl
		// interventions.
		d.every(opts.Aggregator, func() {
			if _, err := d.shTree.Rebalance(opts.Budget); err != nil {
				logf("dcmd: budget cascade: %v", err)
			}
		})
		logf("dcmd: cascading %.0f W across %d leaves every %v", opts.Budget, opts.Shards, opts.Aggregator)
	}
	return d, nil
}

// newManager builds a manager the way every shape needs one: tuned from
// the flags, on the shared telemetry, journaling into dir ("" = not at
// all) and holding the -tiers presets.
func (d *daemon) newManager(dir string) (*dcm.Manager, error) {
	mgr := dcm.NewManager(d.dial)
	d.opts.tune(mgr)
	mgr.SetTelemetry(d.reg, d.trace)
	if dir != "" {
		if err := mgr.OpenStateDir(dir); err != nil {
			mgr.Close()
			return nil, err
		}
		if n := len(mgr.Nodes()); n > 0 {
			d.logf("dcmd: restored %d node(s) from %s; reconciling caps on the next poll", n, dir)
		}
	}
	// After the state dir, so presets reach restored nodes immediately
	// (nodes registering later pick their preset up at AddNode).
	if err := applyTiers(mgr, d.opts.Tiers); err != nil {
		mgr.Close()
		return nil, err
	}
	return mgr, nil
}

// lead makes mgr an acting manager: arm its budget, start polling, and
// serve the replication feed when -replica-addr is set. budget/group
// are the -budget/-group flags at a cold start, where the command line
// is the operator's newest word and wins over a journaled budget. A
// promoting standby passes none and re-arms only the journaled budget:
// that is what the deposed primary was enforcing, and dcmctl may have
// changed it since either member's flags were written. A start without
// the flags does the same, so a restart never silently drops the
// fleet's power budget.
func (d *daemon) lead(mgr *dcm.Manager, budget float64, group string) error {
	if budget > 0 && group != "" {
		names := strings.Split(group, ",")
		mgr.StartAutoBalance(budget, names, d.opts.Rebalance)
		d.logf("dcmd: auto-balancing %.0f W across %v every %v", budget, names, d.opts.Rebalance)
	} else if watts, names, interval, ok := mgr.RestoredBudget(); ok {
		mgr.StartAutoBalance(watts, names, interval)
		d.logf("dcmd: restored auto-balance of %.0f W across %v every %v", watts, names, interval)
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
func (d *daemon) every(interval time.Duration, fn func()) {
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
func (d *daemon) serve(control dcm.Control) error {
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
func (d *daemon) flat() (dcm.Control, error) {
	mgr, err := d.newManager(d.opts.StateDir)
	if err != nil {
		return nil, err
	}
	d.mgr = mgr
	if d.haNode != nil {
		// Take the lease before actuating anything. Losing the race means
		// a live primary already leads — this process was misconfigured
		// (it should be the standby), so refuse to start rather than sit
		// in a role the operator did not ask for.
		d.haNode.Mgr = mgr
		role, err := d.haNode.Start()
		if err != nil {
			return nil, fmt.Errorf("dcmd: lease: %w", err)
		}
		if role != dcm.RolePrimary {
			return nil, fmt.Errorf("dcmd: lease %s is held by another live primary; start this member with -standby-of", d.opts.leasePath())
		}
		d.logf("dcmd: primary at epoch %d (lease %s)", mgr.Epoch(), d.opts.leasePath())
	}
	return mgr, d.lead(mgr, d.opts.Budget, d.opts.Group)
}

// standby is the hot-standby member of an HA pair: it opens its own
// state dir as a replica of the primary's journal, pulls the feed over
// TCP, and serves only read-side ops ("leader", "nodes", "trace") until
// the primary's lease lapses — at which point promote builds the real
// manager from the replicated state and takes over the fleet.
func (d *daemon) standby() (dcm.Control, error) {
	st, err := store.Open(d.opts.StateDir)
	if err != nil {
		return nil, fmt.Errorf("dcmd: opening replica state dir: %w", err)
	}
	d.replicaSt = st
	// Recover the persisted resume point, if any: a restarted standby
	// picks replication back up at its cursor, and its non-zero
	// generation marks it synced enough to contend for the lease even
	// when the primary never comes back.
	d.rep = store.RecoverReplica(st, d.opts.StateDir)
	if g, c := d.rep.Gen(), d.rep.Cursor(); g != 0 {
		d.logf("dcmd: standby resuming replication at gen %d cursor %d", g, c)
	}
	// A placeholder manager serves the control plane while standing by:
	// it knows no nodes and refuses every mutation (RoleStandby), but
	// answers "leader" so operators can see who to talk to.
	mgr, err := d.newManager("")
	if err != nil {
		return nil, err
	}
	mgr.SetFencing(dcm.RoleStandby, 0)
	d.mgr, d.haNode.Mgr = mgr, mgr
	d.replClient = store.NewReplClient(d.opts.StandbyOf, d.rep)
	d.replClient.Start()
	d.logf("dcmd: standby of %s (lease %s); replicating into %s", d.opts.StandbyOf, d.opts.leasePath(), d.opts.StateDir)
	return mgr, nil
}

// promote is every HA member's OnPromote hook (called from start or the
// heartbeat once HANode holds the lease and has fenced d.mgr). A
// standby's first promotion seals the replicated journal, rebuilds a
// real manager over it, re-announces the new epoch to every node, has
// it lead, and swaps it into the control plane.
func (d *daemon) promote(epoch uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	mgr := d.mgr
	if d.replicaSt != nil && !d.closed {
		d.replClient.Stop()
		d.replicaSt.Close() // compacts: the state dir reopens from one clean snapshot
		d.replicaSt = nil
		// Drop the replication resume claim: from here the dir journals this
		// member's own records, and resuming the old claim into a later
		// standby lifetime could splice that history into a session.
		if err := store.ClearReplicaMeta(d.opts.StateDir); err != nil {
			d.logf("dcmd: promotion: clearing replica resume point: %v", err)
		}
		var err error
		if mgr, err = d.newManager(d.opts.StateDir); err != nil {
			// The replicated journal would not reopen: stay a fenced
			// placeholder rather than lead with no state. The lease is held,
			// so the fleet is headless until an operator intervenes — but
			// caps keep being enforced by the nodes themselves.
			d.logf("dcmd: promotion at epoch %d failed reopening %s: %v", epoch, d.opts.StateDir, err)
			return
		}
		mgr.SetFencing(dcm.RolePrimary, epoch)
	}
	// Re-stamp the store's replication generation at every promotion —
	// first and any later self-lapse re-promotion. The generation
	// combines the fencing epoch with the state dir's open counter
	// (SetGenForEpoch), so even a crash-restart that live-renews the same
	// epoch yields a fresh generation and a standby resuming across any
	// leadership or process boundary renegotiates from a snapshot instead
	// of splicing incarnations.
	if st := mgr.Store(); st != nil {
		st.SetGenForEpoch(epoch)
	}
	if mgr == d.mgr {
		return // no rebuild: HANode already re-fenced and re-announced d.mgr
	}
	if err := mgr.AnnounceEpoch(); err != nil {
		// Unreachable nodes miss the announce now; reconciliation
		// re-pushes (and thereby fences) them as they return.
		d.logf("dcmd: promotion: announcing epoch %d: %v", epoch, err)
	}
	if err := d.lead(mgr, 0, ""); err != nil {
		d.logf("dcmd: promotion: %v", err)
	}
	placeholder := d.mgr
	d.mgr, d.haNode.Mgr = mgr, mgr
	d.srv.SetControl(mgr)
	placeholder.Close()
	d.logf("dcmd: promoted to primary at epoch %d", epoch)
}

// heartbeat drives the lease state machine one step.
func (d *daemon) heartbeat() {
	// A never-synced standby must not seize the lease: promoting before
	// the first snapshot frame lands would lead an empty fleet while the
	// real one runs headless. A restarted standby that recovered its
	// replicated journal carries a non-zero generation
	// (store.RecoverReplica) and so still contends — its local state is
	// the fleet's best surviving copy.
	if d.rep != nil && d.haNode.Mgr.Role() == dcm.RoleStandby && d.rep.Gen() == 0 {
		return
	}
	changed, err := d.haNode.Tick()
	if err != nil {
		d.logf("dcmd: lease: %v", err)
	}
	if changed {
		m := d.haNode.Mgr
		d.logf("dcmd: now %s at epoch %d", m.Role(), m.Epoch())
	}
}

// shardSeed fixes the aggregator's ring seed: determinism across
// restarts comes from the snapshot, and a fresh ring only needs every
// member to agree — there is nothing to randomise.
const shardSeed = 1

// leafName names the i'th leaf manager of a sharded daemon. %02d keeps
// lexical order equal to index order, which the snapshot leaf check
// relies on (hence the 99-leaf cap in start).
func leafName(i int) string { return fmt.Sprintf("leaf-%02d", i) }

// tree is the two-level shape (DESIGN §13): -shards leaf managers each
// own a consistent-hash shard of the fleet, an aggregator tree routes
// control-plane ops to owners and cascades the -budget across the
// leaves, and -state-dir journals both the per-leaf registries
// (leaf-NN/) and the shard map (shardmap.snap) so a restarted daemon
// resumes ownership exactly where it left off.
func (d *daemon) tree() (dcm.Control, error) {
	opts, snapPath := d.opts, ""
	if opts.StateDir != "" {
		snapPath = shard.SnapshotPathIn(opts.StateDir)
	}
	// A fresh ring is the empty shard map over this daemon's leaves.
	fresh := shard.TreeState{Seed: shardSeed}
	live := make(map[string]*dcm.Manager, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		dir := ""
		if opts.StateDir != "" {
			dir = filepath.Join(opts.StateDir, leafName(i))
		}
		// Every leaf holds every -tiers preset; only the owner's copy is
		// consulted when the node registers.
		mgr, err := d.newManager(dir)
		if err != nil {
			return nil, err
		}
		d.shLeaves = append(d.shLeaves, mgr)
		live[leafName(i)] = mgr
		fresh.Leaves = append(fresh.Leaves, shard.LeafRecord{Name: leafName(i)})
	}
	// Resume from the journaled shard map when it names these leaves.
	st := fresh
	if snapPath != "" {
		snap, err := shard.LoadSnapshot(snapPath)
		if err == nil && !slices.EqualFunc(snap.Leaves, fresh.Leaves, func(a, b shard.LeafRecord) bool { return a.Name == b.Name }) {
			err = fmt.Errorf("snapshot's %d leaves are not the %d that -shards names", len(snap.Leaves), opts.Shards)
		}
		switch {
		case err == nil:
			st = snap
			d.logf("dcmd: restoring shard map: %d node(s) across %d leaves at epoch %d", len(st.Nodes), len(st.Leaves), st.Epoch)
		case !errors.Is(err, fs.ErrNotExist):
			d.logf("dcmd: shard map %s not restorable (%v); rebuilding the ring", snapPath, err)
		}
	}
	t, err := shard.NewTreeFromState(st, nil, snapPath)
	if err != nil {
		return nil, err
	}
	// Re-bind the leaves exactly as an aggregator restart does (the
	// procedure chaos leaf-crash proves). The shard map and the leaf
	// journals commit independently, so a crash can wedge them apart:
	// Rebind re-registers map-owned nodes a leaf journal lost and
	// re-routes journal-only nodes through the ring — every journaled
	// node, when the map is fresh, so a daemon that lost only
	// shardmap.snap still comes back owning its fleet. Per-node failures
	// are tolerated: a node that is down right now re-registers when the
	// operator re-adds it.
	if _, err := t.Rebind(live); err != nil {
		d.logf("dcmd: re-binding leaves to the shard map: %v", err)
	}
	for _, mgr := range d.shLeaves {
		if err := d.lead(mgr, 0, ""); err != nil {
			return nil, err
		}
	}
	d.shTree = t
	d.logf("dcmd: aggregator over %d leaf shard(s) at epoch %d", opts.Shards, t.Epoch())
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
func (d *daemon) Shutdown() {
	d.stopLoops()
	if d.haNode != nil {
		if err := d.haNode.StepDown(); err != nil {
			d.logf("dcmd: releasing lease: %v", err)
		}
	}
	d.Close()
}

// stopLoops ends the every() loops and waits for them. Idempotent.
func (d *daemon) stopLoops() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.loops.Wait()
}

// Close tears the daemon down (loops, HTTP and replication first, then
// the control plane, then the managers and their pollers). Idempotent,
// and safe on a daemon that never finished starting. Unlike Shutdown it
// does not touch the lease: a SIGKILL'd or crashed primary leaves its
// lease to expire, and Close models every non-graceful path.
func (d *daemon) Close() {
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

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	d, err := start(opts, nil, nil)
	if err != nil {
		log.Fatalf("%v", err)
	}
	log.Printf("dcmd: control plane on %s, polling every %v", d.ControlAddr, opts.Poll)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	signal.Stop(sig)
	log.Printf("dcmd: %v: draining, compacting journal and releasing lease", s)
	d.Shutdown()
}

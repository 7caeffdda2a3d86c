package chaos

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/dcm/store"
	"nodecap/internal/faults"
	"nodecap/internal/fleet"
	"nodecap/internal/ipmi"
	"nodecap/internal/shard"
	"nodecap/internal/telemetry"
)

const (
	maxCapWatts = 180.0

	// controlPeriodSeconds converts ticks to simulated seconds (the
	// BMC default control period is 100 µs of simtime).
	controlPeriodSeconds = 100e-6
)

// Fleet is the simulated data center a scenario runs against: the
// batch simulation engine holding every node's plant and BMC state as
// structure-of-arrays slices (internal/fleet), the per-node IPMI
// management surface layered on top of it, the control plane (leaves
// of replicated managers, under a shard tree when sharded), and the
// shadow model of every journaled operation used by the
// recovery-integrity check.
type Fleet struct {
	scenario Scenario
	dir      string
	budget   float64

	// eng steps all nodes in one batched pass per tick; srvs are the
	// per-node IPMI dispatch tables (the fenced management path).
	eng  *fleet.Engine
	srvs []*ipmi.Server

	// Per-node manager↔node link state, guarded by linkMu (the poll
	// workers and, in wire mode, server connection goroutines read it
	// concurrently with the run loop's fault injection). latNS is the
	// injected per-exchange latency (EvSlow); latDraws counts each
	// node's jitter draws so the jittered latency stream is a pure
	// function of (seed, node, draw); flapPeriod/flapFrom describe an
	// active EvFlap; sampled marks nodes whose power reading the
	// manager fetched since the last notePoll (the no_starvation feed).
	linkMu     sync.Mutex
	down       []bool
	asym       []bool
	latNS      []int64
	latDraws   []uint64
	flapPeriod []int
	flapFrom   []int
	sampled    []bool

	nameIdx map[string]int // node index by name, and by address in wire mode

	registered []bool
	meta       []nodeMeta

	// base and shadow are the independent model of the leader's
	// durable state without a tree: base is the state its store held
	// when it opened, shadow mirrors, in order, every record it
	// journaled since. A torn cut trims the shadow's tail by exactly the
	// lost line count. With HA the pair is re-anchored at every
	// promotion, and shadow indices double as replication sequence
	// numbers (the store's seq counts exactly the records applied since
	// open). Tree leaves recover by rejoin, not replay, so a sharded run
	// keeps no shadow.
	base   store.State
	shadow []store.Record

	// leaves is the control plane (plane.go). tree, its batch mux and
	// its snapshot path exist only when Scenario.Shards > 0.
	leaves   []*leaf
	tree     *shard.Tree
	mux      *ipmi.Mux
	snapPath string

	// pushLog records every cap push a plant ADMITTED on a connection
	// attributed to a tree leaf. The single_owner checker drains it each
	// tick: an admitted push from a non-owner means a handoff left two
	// writers actuating.
	pushLog []ownedPush

	// leaseNS backs the lease clock: tick × haLeaseTick, stored
	// atomically because lease reads happen inside manager calls.
	leaseNS int64

	// Wire-mode plumbing.
	transports []*faults.Transport
	wireAddrs  []string

	// Fleet-wide observability: wall-clock stamping is disabled on the
	// trace so in-process verdicts (which embed trace windows) stay
	// bit-identical, and the run loop stamps the simulated tick instead.
	reg   *telemetry.Registry
	trace *telemetry.Trace

	// clockNS backs simClock, the deterministic wall clock injected
	// into every manager this fleet builds. It survives crash/restart
	// cycles (it lives on the fleet, not the manager), so timestamps
	// keep advancing monotonically across manager generations.
	clockNS int64
}

// nodeMeta is the manager-visible registration data the shadow model
// mirrors into journal records.
type nodeMeta struct {
	addr     string
	min, max float64
}

func newFleet(s Scenario, dir string) (*Fleet, error) {
	f := &Fleet{
		scenario:   s,
		dir:        dir,
		srvs:       make([]*ipmi.Server, s.Nodes),
		down:       make([]bool, s.Nodes),
		asym:       make([]bool, s.Nodes),
		latNS:      make([]int64, s.Nodes),
		latDraws:   make([]uint64, s.Nodes),
		flapPeriod: make([]int, s.Nodes),
		flapFrom:   make([]int, s.Nodes),
		sampled:    make([]bool, s.Nodes),
		nameIdx:    make(map[string]int, s.Nodes),
		registered: make([]bool, s.Nodes),
		meta:       make([]nodeMeta, s.Nodes),
		reg:        telemetry.NewRegistry(),
		trace:      telemetry.NewTrace(telemetry.DefaultTraceCapacity),
	}
	f.budget = s.BudgetWatts
	if f.budget <= 0 {
		f.budget = DefaultBudgetPerNodeW * float64(s.Nodes)
	}
	f.trace.SetWallClock(nil)
	f.eng = fleet.New(fleet.Config{
		Nodes:              s.Nodes,
		Seed:               s.Seed,
		NamePrefix:         "node-",
		BreakFailSafeFloor: s.BreakFailSafeFloor,
		Parallelism:        s.Parallelism,
	})
	f.eng.SetTelemetry(f.reg, f.trace)
	for i := 0; i < s.Nodes; i++ {
		f.nameIdx[f.eng.Name(i)] = i
		f.srvs[i] = ipmi.NewServer(&nodeCtl{f: f, i: i})
		if s.BreakFencing {
			f.srvs[i].SetFencingEnabled(false)
		}
	}
	if s.Wire {
		f.transports = make([]*faults.Transport, s.Nodes)
		f.wireAddrs = make([]string, s.Nodes)
		for i := range f.srvs {
			addr, err := f.srvs[i].Listen("127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("chaos: listening for node %d: %w", i, err)
			}
			f.wireAddrs[i] = addr
			f.nameIdx[addr] = i
			f.transports[i] = faults.New(faults.Profile{Seed: s.Seed + int64(i) + 1})
		}
	}
	if err := f.setup(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *Fleet) name(i int) string { return f.eng.Name(i) }

func (f *Fleet) setLink(i int, down, asym bool) {
	f.linkMu.Lock()
	f.down[i], f.asym[i] = down, asym
	f.linkMu.Unlock()
}

func (f *Fleet) linkState(i int) (down, asym bool) {
	f.linkMu.Lock()
	defer f.linkMu.Unlock()
	return f.down[i], f.asym[i]
}

func (f *Fleet) setLat(i int, ns int64) {
	f.linkMu.Lock()
	f.latNS[i] = ns
	f.linkMu.Unlock()
}

func (f *Fleet) setFlap(i, period, from int) {
	f.linkMu.Lock()
	f.flapPeriod[i], f.flapFrom[i] = period, from
	f.linkMu.Unlock()
	if period == 0 {
		f.setLink(i, false, false)
	}
}

// applyFlaps drives every flapping node's link for this tick: up for
// the first half of each period, down for the second. Pure function of
// (event schedule, tick), so flap schedules replay bit-identically.
func (f *Fleet) applyFlaps(tick int) {
	f.linkMu.Lock()
	for i, period := range f.flapPeriod {
		if period <= 0 {
			continue
		}
		half := period / 2
		if half < 1 {
			half = 1
		}
		f.down[i] = ((tick-f.flapFrom[i])/half)%2 == 1
	}
	f.linkMu.Unlock()
}

// injectLatency advances the sim clock by node i's jittered
// per-exchange latency (no-op for non-slow nodes), so the manager
// *measures* the storm through its ordinary clock reads. The jitter is
// ±25 % around the injected base, drawn from a splitmix64 stream keyed
// by (scenario seed, node, draw count) — one node's schedule never
// depends on another's call interleaving.
func (f *Fleet) injectLatency(i int) {
	f.linkMu.Lock()
	base := f.latNS[i]
	var d int64
	if base > 0 {
		f.latDraws[i]++
		frac := grayFrac(f.scenario.Seed, i, f.latDraws[i])
		d = int64(float64(base) * (0.75 + 0.5*frac))
	}
	f.linkMu.Unlock()
	if d > 0 {
		atomic.AddInt64(&f.clockNS, d)
	}
}

// grayFrac is draw n of node i's latency-jitter stream in [0, 1) —
// the splitmix64 counter idiom from internal/fleet.
func grayFrac(seed int64, i int, n uint64) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xd1342543de82ef95 + n*0x9e3779b97f4a7c15 + 1
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// markSampled records that the manager fetched node i's power reading;
// takeSampled consumes the marks (called once per poll round by the
// no_starvation checker).
func (f *Fleet) markSampled(i int) {
	f.linkMu.Lock()
	f.sampled[i] = true
	f.linkMu.Unlock()
}

func (f *Fleet) takeSampled(dst []bool) {
	f.linkMu.Lock()
	copy(dst, f.sampled)
	for i := range f.sampled {
		f.sampled[i] = false
	}
	f.linkMu.Unlock()
}

// refreshElig writes each node's link cleanliness — not partitioned,
// not slow, not flapping — into dst in one lock acquisition. The
// gray-failure invariants audit only clean-link nodes ("healthy" in
// the scenario's sense); a sick node is the defense layer's input, not
// its obligation.
func (f *Fleet) refreshElig(dst []bool) {
	f.linkMu.Lock()
	for i := range dst {
		dst[i] = !f.down[i] && !f.asym[i] && f.latNS[i] == 0 && f.flapPeriod[i] == 0
	}
	f.linkMu.Unlock()
}

// simClock is the deterministic wall clock injected into the manager.
// Each read advances simulated time by 1 µs, so every timestamp-
// dependent decision (staleness verdicts, backoff gates, sample
// stamps) is a pure function of the read sequence — which, with polls
// swept in name order from one goroutine and a sequential run loop, is
// itself deterministic.
// 1 µs per read keeps the 1 ns backoff/staleness windows behaving as
// before: any gate armed at read k has expired by read k+1.
func (f *Fleet) simClock() time.Time {
	return time.Unix(0, atomic.AddInt64(&f.clockNS, 1000))
}

// newManager builds member m's manager, wired to the fleet and
// attached to m's state dir. Backoff and staleness windows are 1 ns:
// wall-clock gates always open by the next poll, and delays this
// small skip the jitter draw, so the manager's rng never influences
// the run. The manager's clock is the fleet's simClock, so no
// decision ever consults real time — the property the replay
// regression test pins. Journal fsync is disabled: a simulated crash
// rereads the file rather than cutting power (the bytes on disk are
// identical either way), and fleet-scale scenarios journal far too
// many records to fsync each one inside the CI budget.
func (f *Fleet) newManager(m *member) (*dcm.Manager, error) {
	mgr := dcm.NewManager(f.dialer(m.leaf))
	mgr.RetryBaseDelay = time.Nanosecond
	mgr.RetryMaxDelay = time.Nanosecond
	mgr.StaleAfter = time.Nanosecond
	mgr.Clock = f.simClock
	// Gray-failure defense, scaled to simClock's 1 µs-per-read pace: a
	// healthy in-process exchange measures ~1 µs, a stormed node
	// hundreds of µs, so 50 µs cleanly separates the populations. The
	// open hold (60 µs) spans a few poll rounds; quarantine doubles it.
	// Both must stay well under StarvationRounds' worth of poll rounds
	// (a round advances the clock ≥ ~3 µs per registered node), or a
	// healed node still serving its hold trips no_starvation.
	mgr.Breaker = dcm.BreakerConfig{
		FailureThreshold: 3,
		SlowThreshold:    50 * time.Microsecond,
		SlowConsecutive:  2,
		OpenTimeout:      60 * time.Microsecond,
		FlapWindow:       5 * time.Millisecond,
		FlapMax:          4,
		QuarantineHold:   120 * time.Microsecond,
	}
	mgr.PollBudget = 400 * time.Microsecond
	if f.scenario.BreakBreaker {
		// Self-test sabotage: verdicts still trip, but open breakers gate
		// cap pushes and never probe, so healed nodes stay dark — the
		// -break-breaker run must make both gray invariants fire.
		mgr.BreakerHoldsPushes = true
		mgr.BreakerNeverProbes = true
	}
	mgr.SetTelemetry(f.reg, f.trace)
	if err := mgr.OpenStateDir(f.stateDir(m)); err != nil {
		return nil, fmt.Errorf("chaos: opening state dir: %w", err)
	}
	mgr.Store().SetSync(false)
	return mgr, nil
}

// dialer dials nodes for a manager whose admitted pushes are
// attributed to tree leaf index leaf (-1 without a tree).
func (f *Fleet) dialer(leaf int) dcm.Dialer {
	return func(addr string) (dcm.BMC, error) {
		i, ok := f.nameIdx[addr]
		if !ok {
			return nil, fmt.Errorf("chaos: unknown address %q", addr)
		}
		if f.scenario.Wire {
			conn, err := f.transports[i].Dial("tcp", addr, time.Second)
			if err != nil {
				return nil, err
			}
			c := ipmi.NewClientConn(conn)
			c.SetRequestTimeout(250 * time.Millisecond)
			return c, nil
		}
		if down, _ := f.linkState(i); down {
			return nil, errLinkDown
		}
		return ipmi.NewClientConn(ipmi.Loopback(f.link(i, leaf))), nil
	}
}

func (f *Fleet) nodeAddr(i int) string {
	if f.scenario.Wire {
		return f.wireAddrs[i]
	}
	return f.name(i)
}

// addNode registers sim node i with the leader and mirrors the
// journaled add record; a tree routes it to its ring owner instead.
func (f *Fleet) addNode(i int) error {
	if f.tree != nil {
		if err := f.tree.AddNode(f.name(i), f.nodeAddr(i), uint32(i)); err != nil {
			return err
		}
		f.registered[i] = true
		return nil
	}
	if err := f.leader().AddNode(f.name(i), f.nodeAddr(i)); err != nil {
		return err
	}
	return f.mirrorAdds(i, i+1)
}

// registerAll registers the whole fleet: through the tree with one
// snapshot persist, or with the leader and mirrored with one
// Manager.Nodes() pass — a persist or a lookup per node costs the
// whole fleet N times over.
func (f *Fleet) registerAll() error {
	if f.tree != nil {
		infos := make([]shard.NodeInfo, f.scenario.Nodes)
		for i := range infos {
			infos[i] = shard.NodeInfo{Name: f.name(i), Addr: f.nodeAddr(i), ID: uint32(i)}
		}
		if err := f.tree.AddNodes(infos); err != nil {
			return fmt.Errorf("chaos: registering sharded fleet: %w", err)
		}
		for i := range f.registered {
			f.registered[i] = true
		}
		return nil
	}
	for i := 0; i < f.scenario.Nodes; i++ {
		if err := f.leader().AddNode(f.name(i), f.nodeAddr(i)); err != nil {
			return fmt.Errorf("chaos: registering node %d: %w", i, err)
		}
	}
	return f.mirrorAdds(0, f.scenario.Nodes)
}

// mirrorAdds marks sim nodes [lo, hi) registered and appends their
// journaled add records in index order, from the manager's own view so
// float round-trips through the wire codec cannot skew the shadow.
func (f *Fleet) mirrorAdds(lo, hi int) error {
	found := 0
	for _, st := range f.leader().Nodes() {
		if i, ok := f.nameIdx[st.Name]; ok && i >= lo && i < hi {
			f.meta[i] = nodeMeta{addr: st.Addr, min: st.MinCapWatts, max: st.MaxCapWatts}
			found++
		}
	}
	if found != hi-lo {
		return fmt.Errorf("chaos: %d of nodes [%d,%d) missing after AddNode", hi-lo-found, lo, hi)
	}
	for i := lo; i < hi; i++ {
		m := f.meta[i]
		f.registered[i] = true
		f.shadow = append(f.shadow, store.Record{
			Op: store.OpAddNode, Name: f.name(i),
			Node: &store.NodeRecord{Addr: m.addr, MinCapWatts: m.min, MaxCapWatts: m.max},
		})
	}
	return nil
}

// removeNode unregisters sim node i through the tree, or with the
// leader while one leads, mirroring the journaled remove record.
func (f *Fleet) removeNode(i int) error {
	mgr, name := f.leader(), f.name(i)
	if !f.registered[i] || (f.tree == nil && mgr == nil) {
		return nil
	}
	if f.tree != nil {
		if err := f.tree.RemoveNode(name); err != nil {
			return err
		}
	} else {
		if err := mgr.RemoveNode(name); err != nil {
			return err
		}
		f.shadow = append(f.shadow, store.Record{Op: store.OpRemoveNode, Name: name})
	}
	f.registered[i] = false
	return nil
}

// mirrorAllocs appends the setcap records ApplyBudget journaled, in
// push order (the desired cap is journaled before each push, even
// ones that then fail).
func (f *Fleet) mirrorAllocs(allocs []dcm.Allocation) {
	for _, a := range allocs {
		idx, ok := f.nameIdx[a.Name]
		if !ok {
			continue
		}
		m := f.meta[idx]
		f.shadow = append(f.shadow, store.Record{
			Op: store.OpSetCap, Name: a.Name,
			Node: &store.NodeRecord{
				Addr: m.addr, MinCapWatts: m.min, MaxCapWatts: m.max,
				HaveCap: true, CapEnabled: a.CapWatts > 0, CapWatts: a.CapWatts,
			},
		})
	}
}

// group lists the currently registered node names, sorted.
func (f *Fleet) group() []string {
	var out []string
	for i, ok := range f.registered {
		if ok {
			out = append(out, f.name(i))
		}
	}
	sort.Strings(out)
	return out
}

// tearJournal truncates dir's journal at a cut derived from tornBytes
// (modulo length+1, so the cut can land mid-record, between records,
// or lose nothing) and returns the number of record lines destroyed.
func tearJournal(dir string, tornBytes int) (lost int, err error) {
	path := store.JournalPath(dir)
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("chaos: reading journal: %w", err)
	}
	cut := len(b)
	if tornBytes > 0 {
		cut = tornBytes % (len(b) + 1)
	}
	if cut == len(b) {
		return 0, nil
	}
	lost = bytes.Count(b, []byte{'\n'}) - bytes.Count(b[:cut], []byte{'\n'})
	if err := os.Truncate(path, int64(cut)); err != nil {
		return 0, fmt.Errorf("chaos: tearing journal: %w", err)
	}
	return lost, nil
}

// wireProfile installs fault profile p, seeded per node, on node i's
// transport in wire mode; in-process links fault through setLink,
// setLat and setFlap alone.
func (f *Fleet) wireProfile(i int, p faults.Profile) {
	if f.scenario.Wire {
		p.Seed = f.scenario.Seed + int64(i) + 1
		f.transports[i].SetProfile(p)
	}
}

// applyEvent executes one scheduled event, updating verdict counters
// and (for restarts) running the recovery-integrity check.
func (f *Fleet) applyEvent(e Event, iv *invariants, v *Verdict) error {
	var err error
	switch e.Kind {
	case EvPartition, EvPartitionAsym:
		// Wire mode cannot lose only responses; degrade to symmetric.
		asym := e.Kind == EvPartitionAsym && !f.scenario.Wire
		f.setLink(e.Node, !asym, asym)
		f.wireProfile(e.Node, faults.Profile{DialErrorProb: 1, DropWrites: true})
	case EvHeal:
		f.setLink(e.Node, false, false)
		f.wireProfile(e.Node, faults.Profile{})
	case EvSlow:
		f.setLat(e.Node, int64(e.LatencyUS)*1000)
		lat := time.Duration(e.LatencyUS) * time.Microsecond
		f.wireProfile(e.Node, faults.Profile{ReadLatency: lat, ReadJitter: lat / 2})
	case EvSlowHeal:
		f.setLat(e.Node, 0)
		f.wireProfile(e.Node, faults.Profile{})
	case EvFlap:
		f.setFlap(e.Node, e.Period, e.Tick)
		f.wireProfile(e.Node, faults.Profile{FlapPeriod: time.Duration(e.Period) * 10 * time.Millisecond, FlapDuty: 0.5})
	case EvFlapHeal:
		f.setFlap(e.Node, 0, e.Tick)
		f.wireProfile(e.Node, faults.Profile{})
	case EvSensorStorm:
		f.eng.SetDropout(e.Node, true)
	case EvSensorHeal:
		f.eng.SetDropout(e.Node, false)
	case EvCrash:
		lf := f.leaves[0]
		if lf.lead < 0 {
			return nil
		}
		lost, err := f.crash(lf, lf.lead, e.TornBytes)
		if err != nil {
			return err
		}
		if lost > len(f.shadow) {
			return fmt.Errorf("chaos: torn cut lost %d records but shadow holds %d", lost, len(f.shadow))
		}
		f.shadow = f.shadow[:len(f.shadow)-lost]
		v.Crashes++
		v.LostRecords += lost
	case EvRestart:
		// Reopen the state dir with a fresh manager, rebuild the
		// registration map from what actually survived, and check it
		// against the shadow's expectation.
		lf := f.leaves[0]
		if lf.lead >= 0 {
			return nil
		}
		mgr, err := f.newManager(lf.members[0])
		if err != nil {
			return err
		}
		lf.members[0].mgr, lf.lead = mgr, 0
		got, _ := mgr.StoreState()
		f.setRegistered(got)
		v.Restarts++
		iv.checkRecovered(e.Tick, InvRecoveryIntegrity, got, store.ReplayFrom(f.base, f.shadow))
	case EvRemoveNode:
		if err := f.removeNode(e.Node); err != nil {
			return nil // unknown node after a rolled-back add; expected
		}
	case EvAddNode:
		if (f.tree == nil && f.leader() == nil) || f.registered[e.Node] {
			return nil
		}
		if err := f.addNode(e.Node); err != nil {
			return nil // link down; the dial failing IS the chaos
		}
	case EvLeafIsolate:
		err = f.leafIsolate(f.leaves[e.Leaf], v)
	case EvLeafRejoin:
		err = f.leafRejoin(f.leaves[e.Leaf], v)
	case EvLeafCrash:
		err = f.leafCrash(f.leaves[e.Leaf], v)
	case EvLeafRestart:
		err = f.leafRestart(f.leaves[e.Leaf], v)
	case EvAggRestart:
		err = f.aggRestart(v)
	case EvKillPrimary:
		err = f.killLeader(f.leaves[0], e.TornBytes, v)
	case EvRevive:
		// Bring the first down member back as a fresh standby.
		for _, m := range f.leaves[0].members {
			if m.mgr == nil && m.st == nil {
				if err := f.openStandby(m); err != nil {
					return err
				}
				m.stalled = false
				v.Restarts++
				break
			}
		}
	case EvLeaseStall:
		if m := f.leaves[0].acting(); m != nil {
			m.stalled = true
		}
	case EvReplDown:
		f.leaves[0].replDown = true
		f.leaves[0].feed = nil
	case EvReplHeal:
		f.leaves[0].replDown = false
	case EvReplTear:
		f.leaves[0].pendingTear = e.TornBytes
	default:
		err = fmt.Errorf("chaos: unknown event kind %q", e.Kind)
	}
	if err != nil {
		return err
	}
	v.EventsApplied++
	return nil
}

// stop releases fleet resources (every member's manager or store,
// wire listeners, the engine's tick shards).
func (f *Fleet) stop() {
	for _, lf := range f.leaves {
		for _, m := range lf.members {
			if m.mgr != nil {
				m.mgr.Close()
			}
			if m.st != nil {
				m.st.Close()
			}
		}
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
	f.eng.Close()
}

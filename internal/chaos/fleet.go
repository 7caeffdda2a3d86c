package chaos

import (
	"bytes"
	"errors"
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
// management surface layered on top of it, the (possibly crashed)
// manager, and the shadow model of every journaled operation used by
// the recovery-integrity check.
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

	nameIdx map[string]int

	mgr        *dcm.Manager // nil while crashed
	registered []bool
	meta       []nodeMeta

	// base and shadow are the independent model of the acting manager's
	// durable state: base is the state its store held when it opened,
	// shadow mirrors, in order, every record it journaled since. A torn
	// cut trims the shadow's tail by exactly the lost line count. In HA
	// mode the pair is re-anchored at every promotion, and shadow
	// indices double as replication sequence numbers (the store's seq
	// counts exactly the records applied since open).
	base   store.State
	shadow []store.Record

	// ha is the primary/standby pair state; nil outside HA mode.
	ha *haCluster

	// sh is the two-level sharded control plane; nil outside sharded
	// mode (Scenario.Shards > 0). Mutually exclusive with ha and mgr.
	sh *shardedCluster

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
			f.transports[i] = faults.New(faults.Profile{Seed: s.Seed + int64(i) + 1})
		}
	}
	if s.HA {
		if err := f.setupHA(); err != nil {
			return nil, err
		}
		return f, nil
	}
	if s.Shards > 0 {
		if err := f.setupSharded(); err != nil {
			return nil, err
		}
		return f, nil
	}
	mgr, err := f.newManagerAt(f.dir)
	if err != nil {
		return nil, err
	}
	f.mgr = mgr
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
// stamps) is a pure function of the read sequence — which, with one
// poll worker and a sequential run loop, is itself deterministic.
// 1 µs per read keeps the 1 ns backoff/staleness windows behaving as
// before: any gate armed at read k has expired by read k+1.
func (f *Fleet) simClock() time.Time {
	return time.Unix(0, atomic.AddInt64(&f.clockNS, 1000))
}

// newManagerAt builds a manager wired to the fleet and attached to
// the given state dir. Backoff and staleness windows are 1 ns:
// wall-clock gates always open by the next poll, and delays this
// small skip the jitter draw, so the manager's rng never influences
// the run. The manager's clock is the fleet's simClock, so no
// decision ever consults real time — the property the replay
// regression test pins. Journal fsync is disabled: a simulated crash
// rereads the file rather than cutting power (the bytes on disk are
// identical either way), and fleet-scale scenarios journal far too
// many records to fsync each one inside the CI budget.
func (f *Fleet) newManagerAt(dir string) (*dcm.Manager, error) {
	return f.newManagerWith(dir, f.dialer())
}

// newManagerWith is newManagerAt with an explicit dialer — sharded
// leaves dial through leaf-attributed links.
func (f *Fleet) newManagerWith(dir string, dial dcm.Dialer) (*dcm.Manager, error) {
	mgr := dcm.NewManager(dial)
	mgr.RetryBaseDelay = time.Nanosecond
	mgr.RetryMaxDelay = time.Nanosecond
	mgr.StaleAfter = time.Nanosecond
	mgr.Clock = f.simClock
	// One poll worker keeps trace append order a function of the sorted
	// node list alone, so verdict trace windows replay bit-identically.
	mgr.PollConcurrency = 1
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
	if err := mgr.OpenStateDir(dir); err != nil {
		return nil, fmt.Errorf("chaos: opening state dir: %w", err)
	}
	mgr.Store().SetSync(false)
	return mgr, nil
}

func (f *Fleet) dialer() dcm.Dialer {
	return func(addr string) (dcm.BMC, error) {
		if f.scenario.Wire {
			for i, wa := range f.wireAddrs {
				if wa == addr {
					conn, err := f.transports[i].Dial("tcp", addr, time.Second)
					if err != nil {
						return nil, err
					}
					c := ipmi.NewClientConn(conn)
					c.SetRequestTimeout(250 * time.Millisecond)
					return c, nil
				}
			}
			return nil, fmt.Errorf("chaos: unknown address %q", addr)
		}
		i, ok := f.nameIdx[addr]
		if !ok {
			return nil, fmt.Errorf("chaos: unknown address %q", addr)
		}
		if down, _ := f.linkState(i); down {
			return nil, errLinkDown
		}
		return &memLink{f: f, i: i, leaf: -1}, nil
	}
}

func (f *Fleet) nodeAddr(i int) string {
	if f.scenario.Wire {
		return f.wireAddrs[i]
	}
	return f.name(i)
}

// addNode registers sim node i with the manager and mirrors the
// journaled add record. In sharded mode the tree routes it to its
// ring owner instead (no shadow model — leaf recovery is by rejoin,
// not replay).
func (f *Fleet) addNode(i int) error {
	if f.sh != nil {
		if err := f.sh.tree.AddNode(f.name(i), f.nodeAddr(i), uint32(i)); err != nil {
			return err
		}
		f.registered[i] = true
		return nil
	}
	if f.mgr == nil {
		return errors.New("chaos: manager crashed")
	}
	if err := f.mgr.AddNode(f.name(i), f.nodeAddr(i)); err != nil {
		return err
	}
	return f.mirrorAdds(i, i+1)
}

// registerAll registers the whole solo/HA fleet and mirrors it with one
// Manager.Nodes() pass — a lookup per node copies and sorts the whole
// fleet N times over.
func (f *Fleet) registerAll() error {
	if f.sh != nil {
		return f.registerAllSharded()
	}
	for i := 0; i < f.scenario.Nodes; i++ {
		if err := f.mgr.AddNode(f.name(i), f.nodeAddr(i)); err != nil {
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
	for _, st := range f.mgr.Nodes() {
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

func (f *Fleet) removeNode(i int) error {
	if f.sh != nil {
		if !f.registered[i] {
			return nil
		}
		if err := f.sh.tree.RemoveNode(f.name(i)); err != nil {
			return err
		}
		f.registered[i] = false
		return nil
	}
	if f.mgr == nil || !f.registered[i] {
		return nil
	}
	name := f.name(i)
	if err := f.mgr.RemoveNode(name); err != nil {
		return err
	}
	f.registered[i] = false
	f.shadow = append(f.shadow, store.Record{Op: store.OpRemoveNode, Name: name})
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

// crash kills the manager the hard way — no compaction — then tears
// the journal tail, trimming the shadow by the lost record count.
// Returns the number of journal records destroyed.
func (f *Fleet) crash(tornBytes int) (lost int, err error) {
	if f.mgr == nil {
		return 0, nil
	}
	f.mgr.Crash()
	f.mgr = nil
	lost, err = tearJournal(f.dir, tornBytes)
	if err != nil {
		return 0, err
	}
	if lost > len(f.shadow) {
		return 0, fmt.Errorf("chaos: torn cut lost %d records but shadow holds %d", lost, len(f.shadow))
	}
	f.shadow = f.shadow[:len(f.shadow)-lost]
	return lost, nil
}

// restart reopens the state dir with a fresh manager and rebuilds the
// registration map from what actually survived. It returns the
// recovered state and the shadow's expectation for the
// recovery-integrity check.
func (f *Fleet) restart() (got, want store.State, err error) {
	if f.mgr != nil {
		return store.State{}, store.State{}, nil
	}
	mgr, err := f.newManagerAt(f.dir)
	if err != nil {
		return store.State{}, store.State{}, err
	}
	f.mgr = mgr
	got, _ = mgr.StoreState()
	want = store.ReplayFrom(f.base, f.shadow)
	for i := range f.registered {
		f.registered[i] = false
	}
	for i := range f.srvs {
		if _, ok := got.Nodes[f.name(i)]; ok {
			f.registered[i] = true
		}
	}
	return got, want, nil
}

// tickNodes advances every sim node one control period in a single
// batched engine pass. Nodes tick whether or not the manager is alive
// (capping is out-of-band).
func (f *Fleet) tickNodes() {
	f.eng.Tick(1)
}

// applyEvent executes one scheduled event, updating verdict counters
// and (for restarts) running the recovery-integrity check.
func (f *Fleet) applyEvent(e Event, iv *invariants, v *Verdict) error {
	switch e.Kind {
	case EvPartition:
		f.setLink(e.Node, true, false)
		if f.scenario.Wire {
			f.transports[e.Node].SetProfile(faults.Profile{
				Seed: f.scenario.Seed + int64(e.Node) + 1, DialErrorProb: 1, DropWrites: true,
			})
		}
	case EvPartitionAsym:
		// Wire mode cannot lose only responses; degrade to symmetric.
		f.setLink(e.Node, f.scenario.Wire, !f.scenario.Wire)
		if f.scenario.Wire {
			f.transports[e.Node].SetProfile(faults.Profile{
				Seed: f.scenario.Seed + int64(e.Node) + 1, DialErrorProb: 1, DropWrites: true,
			})
		}
	case EvHeal:
		f.setLink(e.Node, false, false)
		if f.scenario.Wire {
			f.transports[e.Node].SetProfile(faults.Profile{Seed: f.scenario.Seed + int64(e.Node) + 1})
		}
	case EvSlow:
		f.setLat(e.Node, int64(e.LatencyUS)*1000)
		if f.scenario.Wire {
			lat := time.Duration(e.LatencyUS) * time.Microsecond
			f.transports[e.Node].SetProfile(faults.Profile{
				Seed:        f.scenario.Seed + int64(e.Node) + 1,
				ReadLatency: lat, ReadJitter: lat / 2,
			})
		}
	case EvSlowHeal:
		f.setLat(e.Node, 0)
		if f.scenario.Wire {
			f.transports[e.Node].SetProfile(faults.Profile{Seed: f.scenario.Seed + int64(e.Node) + 1})
		}
	case EvFlap:
		f.setFlap(e.Node, e.Period, e.Tick)
		if f.scenario.Wire {
			f.transports[e.Node].SetProfile(faults.Profile{
				Seed:       f.scenario.Seed + int64(e.Node) + 1,
				FlapPeriod: time.Duration(e.Period) * 10 * time.Millisecond,
				FlapDuty:   0.5,
			})
		}
	case EvFlapHeal:
		f.setFlap(e.Node, 0, e.Tick)
		if f.scenario.Wire {
			f.transports[e.Node].SetProfile(faults.Profile{Seed: f.scenario.Seed + int64(e.Node) + 1})
		}
	case EvSensorStorm:
		f.eng.SetDropout(e.Node, true)
	case EvSensorHeal:
		f.eng.SetDropout(e.Node, false)
	case EvCrash:
		if f.mgr == nil {
			return nil
		}
		lost, err := f.crash(e.TornBytes)
		if err != nil {
			return err
		}
		v.Crashes++
		v.LostRecords += lost
	case EvRestart:
		if f.mgr != nil {
			return nil
		}
		got, want, err := f.restart()
		if err != nil {
			return err
		}
		v.Restarts++
		iv.checkRecovery(e.Tick, got, want)
	case EvRemoveNode:
		if err := f.removeNode(e.Node); err != nil {
			return nil // unknown node after a rolled-back add; expected
		}
	case EvAddNode:
		if (f.mgr == nil && f.sh == nil) || f.registered[e.Node] {
			return nil
		}
		if err := f.addNode(e.Node); err != nil {
			return nil // link down; the dial failing IS the chaos
		}
	case EvLeafIsolate:
		if err := f.shardIsolate(e.Leaf, v); err != nil {
			return err
		}
	case EvLeafRejoin:
		if err := f.shardRejoin(e.Leaf, v); err != nil {
			return err
		}
	case EvLeafCrash:
		if err := f.shardCrash(e.Leaf, v); err != nil {
			return err
		}
	case EvLeafRestart:
		if err := f.shardRestart(e.Leaf, v); err != nil {
			return err
		}
	case EvAggRestart:
		if err := f.shardAggRestart(v); err != nil {
			return err
		}
	case EvKillPrimary:
		if err := f.haKill(e, v); err != nil {
			return err
		}
	case EvRevive:
		if err := f.haRevive(v); err != nil {
			return err
		}
	case EvLeaseStall:
		if f.ha.leaderIdx >= 0 {
			f.ha.members[f.ha.leaderIdx].stalled = true
		}
	case EvReplDown:
		f.ha.replDown = true
		f.ha.feed = nil
	case EvReplHeal:
		f.ha.replDown = false
	case EvReplTear:
		f.ha.pendingTear = e.TornBytes
	default:
		return fmt.Errorf("chaos: unknown event kind %q", e.Kind)
	}
	v.EventsApplied++
	return nil
}

// stop releases fleet resources (managers, wire listeners, the
// engine's tick shards).
func (f *Fleet) stop() {
	if f.ha != nil {
		f.ha.stop()
		f.mgr = nil
	} else if f.sh != nil {
		f.sh.stop()
	} else if f.mgr != nil {
		f.mgr.Close()
		f.mgr = nil
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
	f.eng.Close()
}

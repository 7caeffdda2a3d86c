// Package fleet is the batch simulation engine behind fleet-scale
// chaos: the state of every simulated node — analytic plant, defensive
// BMC controller, sensor-fault injection, and the per-tick observations
// the invariant checker audits — held as structure-of-arrays slices and
// advanced by one cache-friendly pass per tick instead of one
// heap-allocated object, mutex and *rand.Rand pointer chase per node.
//
// Every node runs the one control law in internal/bmc (bmc.Step and
// bmc.Install over per-node bmc.State and bmc.Stats records) — the
// same calls bmc.BMC makes for a single Plant. What is the engine's own
// is the plant and the sensor the scalar stack used to layer per node
// (a faults.FaultyPlant over an analytic plant), with two deliberate
// substitutions:
//
//   - Randomness is counter-based (SplitMix64 streams keyed per node)
//     instead of math/rand: one uint64 of state per node, advanced in
//     registers, no pointer-chased generator objects. Noise is drawn
//     only when the legacy layering would have drawn it (never during
//     a dropout, never for a management read).
//   - Sensor storms are modelled as a per-node dropout switch (the only
//     fault profile the chaos scenarios inject) rather than a
//     probability draw per read.
//
// TestEngineMatchesLegacyStepping drives the engine and the real
// bmc.BMC over a per-node reference plant through 1k random seeded
// scenarios and requires bit-identical state: with one law underneath
// both, what it guards is the two adapters — noise draw order,
// envelope resolution, policy install and the audit snapshots.
//
// Concurrency: Tick shards nodes across a persistent pool.Gang in
// contiguous index ranges. Nodes are mutually independent within a
// tick (management traffic lands between ticks), so shard boundaries
// cannot change any node's trajectory and the result is bit-identical
// at every parallelism. Trace events produced mid-tick (fail-safe
// transitions) are buffered per shard and merged in node order after
// the barrier, so even the observability stream replays identically at
// any worker count. The engine's mutex serializes Tick against the
// management surface (policy pushes, health reads) for wire-mode
// callers whose IPMI server goroutines run concurrently.
package fleet

import (
	"fmt"
	"math"
	"sync"

	"nodecap/internal/bmc"
	"nodecap/internal/pool"
	"nodecap/internal/telemetry"
)

// The simulated platform envelope: ~157 W busy at P0, DVFS worth 2 W
// per P-state down to 127 W, then a 4-level gating ladder worth 1.2 W
// each, for a ~122.2 W floor (the paper's nodes floor at ~123-125 W).
const (
	NumPStates     = 16
	MaxGatingLevel = 4
	P0Watts        = 157.0
	WattsPerPState = 2.0
	WattsPerGate   = 1.2
	NoiseWatts     = 0.4 // sensor noise amplitude (uniform ±)

	// FailSafePState is the fail-safe floor the fleet's BMCs hold
	// (P12 ≈ 133 W — safely under every feasible cap).
	FailSafePState = 12
)

// Params is the per-node plant envelope plus the BMC control tuning,
// shared by every node in an Engine.
type Params struct {
	NumPStates     int
	MaxGatingLevel int
	P0Watts        float64
	WattsPerPState float64
	WattsPerGate   float64
	NoiseWatts     float64

	// BMC is the controller tuning every node runs.
	BMC bmc.Config
}

// DefaultParams returns the chaos fleet's envelope with the hardened
// (fail-safe) BMC tuning.
func DefaultParams() Params {
	c := bmc.FailSafeConfig()
	c.FailSafePState = FailSafePState
	return Params{
		NumPStates:     NumPStates,
		MaxGatingLevel: MaxGatingLevel,
		P0Watts:        P0Watts,
		WattsPerPState: WattsPerPState,
		WattsPerGate:   WattsPerGate,
		NoiseWatts:     NoiseWatts,
		BMC:            c,
	}
}

// FloorWatts is the platform's minimum achievable power: full DVFS
// descent plus the whole gating ladder.
func (p *Params) FloorWatts() float64 {
	return p.P0Watts - p.WattsPerPState*float64(p.NumPStates-1) - p.WattsPerGate*float64(p.MaxGatingLevel)
}

// TrueWatts is the analytic plant: a node's actual draw at P-state ps
// and gating level gt. (Pointer receiver: called per node-tick, where
// a value receiver's copy of Params cost the loop +35 %.)
func (p *Params) TrueWatts(ps, gt int32) float64 {
	return p.P0Watts - p.WattsPerPState*float64(ps) - p.WattsPerGate*float64(gt)
}

// Envelope resolves what the control law needs to know about this
// plant under this tuning.
func (p *Params) Envelope() bmc.Envelope {
	return bmc.Resolve(p.BMC, p.NumPStates, p.MaxGatingLevel, p.FloorWatts())
}

// Config assembles an Engine.
type Config struct {
	Nodes int
	// Seed keys every node's noise stream; same (Seed, node index) —
	// same noise, forever, independent of fleet size or parallelism.
	Seed int64
	// Params defaults to DefaultParams when zero.
	Params Params
	// NamePrefix labels nodes ("node-" → "node-0" …) in trace events.
	NamePrefix string
	// BreakFailSafeFloor makes the plant ignore the fail-safe clamp
	// and creep back toward full speed on untrusted sensor data — the
	// deliberate bug the no_failsafe_speedup checker must catch.
	BreakFailSafeFloor bool
	// Parallelism bounds the tick shards: <= 0 selects GOMAXPROCS, 1
	// forces the inline single-goroutine pass. Output is bit-identical
	// at every setting.
	Parallelism int
}

// shardEvt is one buffered mid-tick trace event (fail-safe enter or
// exit), merged into the trace in node order after the tick barrier.
type shardEvt struct {
	node int32
	kind string
}

// Engine holds the whole fleet's state: plant, policy and audit
// observations as structure-of-arrays slices, the controller as one
// bmc.State and one bmc.Stats record per node.
type Engine struct {
	mu sync.Mutex

	p          Params
	env        bmc.Envelope
	n          int
	breakFloor bool
	names      []string

	// a is every slice the invariant checker audits — plant position,
	// installed policy, sensor storms, per-tick observations — stored
	// once, in the view Audit hands out.
	a Audit
	// Controller memory and activity counters (shard-local writes).
	state []bmc.State
	stats []bmc.Stats
	// Counter-based noise streams, one uint64 of state per node.
	noise []uint64
	// actEpoch is the highest fencing epoch that ever reached each node.
	actEpoch []uint64

	// Telemetry (nil-safe).
	trace         *telemetry.Trace
	mSensorFaults *telemetry.Counter
	mFSEnters     *telemetry.Counter
	mFSExits      *telemetry.Counter

	// Tick sharding.
	workers     int
	gang        *pool.Gang
	shardEvents [][]shardEvt
	batch       int
	shardFn     func(worker, lo, hi int)
}

// New builds an engine; panics on a non-positive node count or an
// invalid controller tuning (a misassembled harness, not a runtime
// condition).
func New(cfg Config) *Engine {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("fleet: non-positive node count %d", cfg.Nodes))
	}
	p := cfg.Params
	if p == (Params{}) {
		p = DefaultParams()
	}
	if err := p.BMC.Validate(); err != nil {
		panic(err)
	}
	prefix := cfg.NamePrefix
	if prefix == "" {
		prefix = "node-"
	}
	n := cfg.Nodes
	e := &Engine{
		p:          p,
		env:        p.Envelope(),
		n:          n,
		breakFloor: cfg.BreakFailSafeFloor,
		names:      make([]string, n),
		a: Audit{
			PState:           make([]int32, n),
			Gating:           make([]int32, n),
			CapEnabled:       make([]bool, n),
			CapWatts:         make([]float64, n),
			Dropout:          make([]bool, n),
			PrePState:        make([]int32, n),
			PostPState:       make([]int32, n),
			PreFailSafe:      make([]bool, n),
			PostFailSafe:     make([]bool, n),
			SinceCapChange:   make([]int32, n),
			OverTicks:        make([]int32, n),
			EpochRegressions: make([]int32, n),
			RegSeen:          make([]int32, n),
		},
		state:    make([]bmc.State, n),
		stats:    make([]bmc.Stats, n),
		noise:    make([]uint64, n),
		actEpoch: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		e.names[i] = fmt.Sprintf("%s%d", prefix, i)
		e.noise[i] = noiseStreamKey(cfg.Seed, i)
	}
	e.workers = pool.Workers(cfg.Parallelism)
	if e.workers > n {
		e.workers = n
	}
	e.shardEvents = make([][]shardEvt, e.workers)
	e.shardFn = e.stepRange
	return e
}

// Close releases the tick shard workers (if any were ever started).
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gang != nil {
		e.gang.Close()
		e.gang = nil
	}
}

// Nodes reports the fleet size.
func (e *Engine) Nodes() int { return e.n }

// Params returns the shared plant/controller tuning.
func (e *Engine) Params() Params { return e.p }

// Name returns node i's trace label.
func (e *Engine) Name(i int) string { return e.names[i] }

// FloorWatts is the platform floor shared by every node.
func (e *Engine) FloorWatts() float64 { return e.env.FloorWatts }

// SetTelemetry wires the fleet counters and the decision trace; either
// may be nil. Tick remains allocation-free when wired.
func (e *Engine) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Trace) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.trace = tr
	e.mSensorFaults = reg.Counter("bmc_sensor_faults_total")
	e.mFSEnters = reg.Counter("bmc_failsafe_entries_total")
	e.mFSExits = reg.Counter("bmc_failsafe_exits_total")
}

// Tick advances every node n control periods in one batched pass.
func (e *Engine) Tick(n int) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.batch = n
	if e.workers <= 1 {
		e.stepRange(0, 0, e.n)
	} else {
		if e.gang == nil {
			e.gang = pool.NewGang(e.workers)
		}
		e.gang.Run(e.n, e.shardFn)
	}
	// Deterministic merge: mid-tick trace events surface in node order
	// (shard ranges are contiguous and ascending), independent of how
	// the shards interleaved.
	if e.trace != nil {
		for _, evs := range e.shardEvents {
			for _, ev := range evs {
				e.trace.Append(telemetry.Event{Node: e.names[ev.node], Kind: ev.kind})
			}
		}
	}
}

// stepRange advances nodes [lo, hi) by the current batch. The tick
// loop is innermost per node, so one node's plant position stays in
// registers for the batch; nodes never interact within a tick, so the
// node-major order is unobservable.
//
// The loop holds only what is the engine's own: the noise draw, the
// analytic plant's watts, the audit snapshots, the broken-floor quirk
// and trace buffering. The law is the one bmc.Step call per node-tick;
// the counters that advance on every tick whatever Step decides (Ticks,
// sinceCapChange) are added once per batch after the inner loop — see
// bmc.Step for why the loop has exactly this shape.
func (e *Engine) stepRange(worker, lo, hi int) {
	evs := e.shardEvents[worker][:0]
	a, p, cfg, env := &e.a, &e.p, &e.p.BMC, &e.env
	batch := e.batch

	for i := lo; i < hi; i++ {
		pos := bmc.Pos{PState: a.PState[i], Gating: a.Gating[i]}
		st, stats := &e.state[i], &e.stats[i]
		enabled := a.CapEnabled[i]
		capW := a.CapWatts[i]
		drop := a.Dropout[i]
		rng := e.noise[i]

		var pre, post int32
		var preFS, postFS bool

		for t := 0; t < batch; t++ {
			pre, preFS = pos.PState, st.FailSafe
			if enabled {
				var w float64
				if !drop {
					rng += splitmixGamma
					f := float64(splitmix(rng)>>11) / (1 << 53)
					w = p.TrueWatts(pos.PState, pos.Gating) + (f*2-1)*p.NoiseWatts
				}
				var ev bmc.Events
				pos, ev = bmc.Step(cfg, env, capW, st, stats, pos, w, !drop, false)
				if ev != 0 {
					if ev&bmc.SensorFault != 0 {
						e.mSensorFaults.Inc()
					}
					if ev&bmc.EnteredFailSafe != 0 {
						e.mFSEnters.Inc()
						evs = append(evs, shardEvt{node: int32(i), kind: telemetry.EvFailSafeEnter})
					}
					if ev&bmc.LeftFailSafe != 0 {
						e.mFSExits.Inc()
						evs = append(evs, shardEvt{node: int32(i), kind: telemetry.EvFailSafeExit})
					}
				}
			}
			if e.breakFloor && st.FailSafe && pos.PState > 0 {
				// The "broken guard": the plant ignores the fail-safe
				// clamp and creeps back toward full speed.
				pos.PState--
			}
			post, postFS = pos.PState, st.FailSafe
		}
		stats.Ticks += uint64(batch)
		a.SinceCapChange[i] += int32(batch)

		a.PState[i], a.Gating[i] = pos.PState, pos.Gating
		e.noise[i] = rng
		a.PrePState[i], a.PostPState[i] = pre, post
		a.PreFailSafe[i], a.PostFailSafe[i] = preFS, postFS
	}
	e.shardEvents[worker] = evs
}

// PushPolicy installs a capping policy on node i through bmc.Install —
// the state machine behind bmc.BMC.SetPolicy — and keeps around it what
// the management path owns: fencing-epoch bookkeeping (a push carrying
// an epoch below the node's high-water mark is counted as a split-brain
// actuation) and the checker's settle-window reset on a material change
// (> 1 W or an enabled flip).
func (e *Engine) PushPolicy(i int, enabled bool, capWatts float64, epoch uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a := &e.a
	if epoch < e.actEpoch[i] {
		a.EpochRegressions[i]++
	} else {
		e.actEpoch[i] = epoch
	}
	old := bmc.Policy{Enabled: a.CapEnabled[i], CapWatts: a.CapWatts[i]}
	ev := bmc.Install(&e.env, &e.state[i], old, bmc.Policy{Enabled: enabled, CapWatts: capWatts})
	a.CapEnabled[i], a.CapWatts[i] = enabled, capWatts
	if ev&bmc.LeftFailSafe != 0 {
		e.mFSExits.Inc()
		e.trace.Append(telemetry.Event{Node: e.names[i], Kind: telemetry.EvFailSafeExit})
	}
	if ev&bmc.Restore != 0 {
		a.PState[i], a.Gating[i] = 0, 0
	}
	if old.Enabled != enabled || math.Abs(old.CapWatts-capWatts) > 1 {
		a.SinceCapChange[i] = 0
		a.OverTicks[i] = 0
	}
}

// Policy reports node i's active policy.
func (e *Engine) Policy(i int) (enabled bool, capWatts float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.a.CapEnabled[i], e.a.CapWatts[i]
}

// SetDropout switches node i's sensor storm: while on, the sensor
// delivers nothing and the BMC must ride through on fail-safe.
func (e *Engine) SetDropout(i int, on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.a.Dropout[i] = on
}

// TrueWatts is node i's actual draw — what the invariant checker
// audits. It never consumes randomness.
func (e *Engine) TrueWatts(i int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.trueWattsLocked(i)
}

func (e *Engine) trueWattsLocked(i int) float64 {
	return e.p.TrueWatts(e.a.PState[i], e.a.Gating[i])
}

// ManagementWatts is the reading served to management polls: the
// controller's smoothed estimate, or truth before the first sample —
// never a fresh sensor draw, so polling cannot perturb the seeded
// noise streams.
func (e *Engine) ManagementWatts(i int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w := e.state[i].Smoothed; w != 0 {
		return w
	}
	return e.trueWattsLocked(i)
}

// PState reports node i's DVFS position.
func (e *Engine) PState(i int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int(e.a.PState[i])
}

// GatingLevel reports node i's gating-ladder position.
func (e *Engine) GatingLevel(i int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int(e.a.Gating[i])
}

// NodeHealth reports node i's defensive-controller status.
func (e *Engine) NodeHealth(i int) bmc.Health {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state[i].Health(&e.stats[i])
}

// Stats sums the per-node activity counters into fleet totals.
func (e *Engine) Stats() bmc.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var s bmc.Stats
	for i := range e.stats {
		s.Add(&e.stats[i])
	}
	return s
}

// Audit is the SoA state an invariant checker reads (and the two
// accumulators it owns: OverTicks and RegSeen). The slices are the
// engine's own — bracket every use with Lock/Unlock. Auditing this way
// costs one mutex acquisition per fleet-wide pass instead of one per
// node.
type Audit struct {
	// Plant.
	PState []int32
	Gating []int32
	// Policy (what the last admitted push installed).
	CapEnabled []bool
	CapWatts   []float64
	// Sensor-fault injection: a storming node's sensor delivers
	// nothing (the only profile the chaos scenarios use).
	Dropout []bool
	// Pre/post snapshots bracket the LAST tick of a batch (the chaos
	// run loop ticks one at a time, so they bracket every tick it
	// audits).
	PrePState    []int32
	PostPState   []int32
	PreFailSafe  []bool
	PostFailSafe []bool
	// SinceCapChange counts ticks since the last material policy
	// change; EpochRegressions counts pushes that carried an epoch below
	// the node's high-water mark.
	SinceCapChange   []int32
	OverTicks        []int32
	EpochRegressions []int32
	RegSeen          []int32
}

// Audit returns the audit view; see Audit's locking contract.
func (e *Engine) Audit() Audit { return e.a }

// Lock serializes an audit pass (or any multi-read) against ticks and
// management pushes.
func (e *Engine) Lock() { e.mu.Lock() }

// Unlock releases Lock.
func (e *Engine) Unlock() { e.mu.Unlock() }

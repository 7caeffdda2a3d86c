package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nodecap/internal/bmc"
	"nodecap/internal/pool"
	"nodecap/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Legacy-style reference: one heap object per node, layered exactly like
// the chaos harness used to build nodes — an analytic plant implementing
// bmc.Plant/PowerSampler/FloorReporter underneath the REAL bmc.BMC
// controller, plus the simNode bookkeeping (pre/post snapshots, settle
// window, fencing epochs, broken-floor creep). The engine must be
// byte-identical to stepping these objects one at a time.
// ---------------------------------------------------------------------------

type refPlant struct {
	p       Params
	pstate  int
	gating  int
	rng     uint64
	dropout bool
}

func (r *refPlant) trueWatts() float64 {
	return r.p.P0Watts - r.p.WattsPerPState*float64(r.pstate) - r.p.WattsPerGate*float64(r.gating)
}

// PowerWatts draws the reference sensor's noise with its own copy of
// the SplitMix64 step, so the engine's draw (bmc.Run over bmc.Linear)
// is checked against an independent one.
func (r *refPlant) PowerWatts() float64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	f := float64(z>>11) / (1 << 53)
	return r.trueWatts() + (f*2-1)*r.p.NoiseWatts
}

func (r *refPlant) PowerSample() (float64, bool) {
	if r.dropout {
		return 0, false
	}
	return r.PowerWatts(), true
}

func (r *refPlant) PStateIndex() int { return r.pstate }
func (r *refPlant) NumPStates() int  { return r.p.NumPStates }
func (r *refPlant) SetPState(i int) {
	if i < 0 {
		i = 0
	}
	if max := r.p.NumPStates - 1; i > max {
		i = max
	}
	r.pstate = i
}
func (r *refPlant) GatingLevel() int    { return r.gating }
func (r *refPlant) MaxGatingLevel() int { return r.p.MaxGatingLevel }
func (r *refPlant) SetGatingLevel(l int) {
	if l < 0 {
		l = 0
	}
	if l > r.p.MaxGatingLevel {
		l = r.p.MaxGatingLevel
	}
	r.gating = l
}
func (r *refPlant) CapFloorWatts() float64 { return r.p.FloorWatts() }

type refNode struct {
	plant      *refPlant
	ctl        *bmc.BMC
	breakFloor bool

	prePState, postPState int
	preFailSafe           bool
	postFailSafe          bool
	sinceCapChange        int
	overTicks             int
	actEpoch              uint64
	epochRegressions      int
}

func newRefNode(i int, seed int64, p Params, breakFloor bool) *refNode {
	plant := &refPlant{p: p, rng: bmc.NoiseStream(seed, i)}
	return &refNode{plant: plant, ctl: bmc.New(p.BMC, plant), breakFloor: breakFloor}
}

// tick mirrors the legacy simNode.tick exactly: snapshot, controller
// tick, broken-floor creep, snapshot, settle counter.
func (n *refNode) tick() {
	n.prePState, n.preFailSafe = n.plant.pstate, n.ctl.FailSafe()
	n.ctl.Tick()
	if n.breakFloor && n.ctl.FailSafe() && n.plant.pstate > 0 {
		n.plant.pstate--
	}
	n.postPState, n.postFailSafe = n.plant.pstate, n.ctl.FailSafe()
	n.sinceCapChange++
}

// push mirrors the legacy nodeCtl.SetPowerLimit: fencing-epoch
// bookkeeping, SetPolicy, settle-window reset on a material change.
func (n *refNode) push(enabled bool, capW float64, epoch uint64) {
	if epoch < n.actEpoch {
		n.epochRegressions++
	} else {
		n.actEpoch = epoch
	}
	old := n.ctl.Policy()
	_ = n.ctl.SetPolicy(bmc.Policy{Enabled: enabled, CapWatts: capW}) // advisory ErrInfeasibleCap
	if old.Enabled != enabled || math.Abs(old.CapWatts-capW) > 1 {
		n.sinceCapChange = 0
		n.overTicks = 0
	}
}

func (n *refNode) managementWatts() float64 {
	if w := n.ctl.SmoothedWatts(); w != 0 {
		return w
	}
	return n.plant.trueWatts()
}

// snapshotFormat renders every field the invariant checker or the
// management plane can observe; the property test compares these
// strings, so any divergence — even in the last bit of a float — fails.
const snapshotFormat = "n%d ps=%d gt=%d true=%b mgmt=%b pol=%v/%b health=%+v " +
	"pre=%d/%v post=%d/%v settle=%d epoch=%d reg=%d stats=%+v\n"

func snapshotRef(nodes []*refNode) string {
	s := ""
	for i, n := range nodes {
		pol := n.ctl.Policy()
		s += fmt.Sprintf(snapshotFormat,
			i, n.plant.pstate, n.plant.gating, n.plant.trueWatts(), n.managementWatts(),
			pol.Enabled, pol.CapWatts, n.ctl.Health(),
			n.prePState, n.preFailSafe, n.postPState, n.postFailSafe,
			n.sinceCapChange, n.actEpoch, n.epochRegressions, n.ctl.Stats())
	}
	return s
}

func snapshotEngine(e *Engine) string {
	e.Lock()
	defer e.Unlock()
	a := e.Audit()
	s := ""
	for i := 0; i < e.n; i++ {
		mgmt := e.state[i].Smoothed
		if mgmt == 0 {
			mgmt = e.trueWattsLocked(i)
		}
		s += fmt.Sprintf(snapshotFormat,
			i, a.PState[i], a.Gating[i], e.trueWattsLocked(i), mgmt,
			a.CapEnabled[i], a.CapWatts[i], e.state[i].Health(&e.stats[i]),
			a.PrePState[i], a.PreFailSafe[i], a.PostPState[i], a.PostFailSafe[i],
			a.SinceCapChange[i], e.actEpoch[i], a.EpochRegressions[i], e.stats[i])
	}
	return s
}

// randomParams draws one scenario's plant noise and controller tuning,
// edge values included: no proportional descent, fail-safe disabled,
// recovery below 1, fail-safe floors unset and out of range, the
// plausibility check off or so tight that full speed itself reads as a
// fault, and stuck-at detection over a noiseless (exactly constant)
// sensor.
func randomParams(rng *rand.Rand) Params {
	p := DefaultParams()
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	p.NoiseWatts = pick(NoiseWatts, NoiseWatts, 0)
	c := &p.BMC
	c.Smoothing = pick(1, 0.6, 0.3, 0.05)
	c.GuardBandWatts = pick(0, 0.5, 2)
	c.HysteresisWatts = pick(0, 2, 5)
	c.GateRelaxHysteresisWatts = pick(0, 0.3, 1.5)
	c.StepWattsPerPState = pick(0, 0.5, 2, 6)
	c.FaultToleranceTicks = int(pick(0, 1, 5))
	c.RecoveryTicks = int(pick(0, 1, 10))
	c.FailSafePState = int(pick(0, -3, 4, FailSafePState, NumPStates-1, NumPStates, 99))
	c.StuckSensorTicks = int(pick(0, 0, 4))
	switch rng.Intn(4) { // case 3 keeps the default 50..400 W
	case 0:
		c.MinPlausibleWatts, c.MaxPlausibleWatts = 0, 0
	case 1:
		c.MinPlausibleWatts, c.MaxPlausibleWatts = 124, 150
	case 2:
		c.MinPlausibleWatts, c.MaxPlausibleWatts = 0, 140
	}
	return p
}

// TestEngineMatchesLegacyStepping is the property test that retired the
// per-node object path: 1k random seeded scenarios — random controller
// tunings, fleet sizes, cap pushes (feasible, marginal, and
// infeasible), fencing-epoch regressions, sensor storms, policy
// disables, broken-floor fleets, and random batch sizes at random
// parallelism — each driven through both the engine and per-node
// reference objects layered on the real bmc.BMC, comparing every
// observable field (rendered with %b floats, so equality is bit-exact),
// the decision trace and the three fleet counters after every
// operation. About one batch in eight is 200-1 500 ticks long, so the
// engine's bmc.Run calls stop on events mid-batch and resume. Both
// sides run the one law in bmc/kernel.go, so what this guards is the
// two adapters around it: when the noise is drawn, how the envelope is
// resolved, what a policy install touches, where the per-batch counters
// land, what the audit snapshots see and in what order events surface.
func TestEngineMatchesLegacyStepping(t *testing.T) {
	scenarios := 1000
	if testing.Short() {
		scenarios = 100
	}
	for sc := 0; sc < scenarios; sc++ {
		rng := rand.New(rand.NewSource(int64(sc) * 7919))
		nodes := 1 + rng.Intn(8)
		seed := rng.Int63()
		breakFloor := rng.Intn(8) == 0
		par := []int{1, 2, 4, runtime.NumCPU()}[rng.Intn(4)]

		params := randomParams(rng)

		e := New(Config{Nodes: nodes, Seed: seed, Params: params, BreakFailSafeFloor: breakFloor, Parallelism: par})
		defer e.Close()
		eReg, eTr := telemetry.NewRegistry(), telemetry.NewTrace(1<<14)
		eTr.SetWallClock(nil)
		e.SetTelemetry(eReg, eTr)
		rReg, rTr := telemetry.NewRegistry(), telemetry.NewTrace(1<<14)
		rTr.SetWallClock(nil)
		ref := make([]*refNode, nodes)
		for i := range ref {
			ref[i] = newRefNode(i, seed, params, breakFloor)
			ref[i].ctl.SetTelemetry(rReg, rTr, e.Name(i))
		}

		ops := 30 + rng.Intn(70)
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // advance a batch of ticks
				batch := 1 + rng.Intn(12)
				if rng.Intn(8) == 0 {
					batch = 200 + rng.Intn(1301)
				}
				e.Tick(batch)
				// The reference steps node-major like the engine; nodes
				// are independent, so per-node order is unobservable.
				for _, n := range ref {
					for t := 0; t < batch; t++ {
						n.tick()
					}
				}
			case k < 8: // push a policy (occasionally stale-epoch, rarely infeasible)
				i := rng.Intn(nodes)
				enabled := rng.Intn(10) != 0
				capW := 100 + float64(rng.Intn(900))/10 // 100.0 .. 189.9 W — spans the floor
				epoch := uint64(rng.Intn(6))
				e.PushPolicy(i, enabled, capW, epoch)
				ref[i].push(enabled, capW, epoch)
			default: // toggle a sensor storm
				i := rng.Intn(nodes)
				on := rng.Intn(2) == 0
				e.SetDropout(i, on)
				ref[i].plant.dropout = on
			}
			got, want := snapshotEngine(e), snapshotRef(ref)
			if got != want {
				t.Fatalf("scenario %d (nodes=%d seed=%d par=%d breakFloor=%v tuning=%+v) diverged after op %d:\nengine:\n%s\nreference:\n%s",
					sc, nodes, seed, par, breakFloor, params.BMC, op, got, want)
			}
			for _, name := range []string{"bmc_sensor_faults_total", "bmc_failsafe_entries_total", "bmc_failsafe_exits_total"} {
				if g, w := eReg.Counter(name).Value(), rReg.Counter(name).Value(); g != w {
					t.Fatalf("scenario %d op %d: counter %s = %d, reference %d", sc, op, name, g, w)
				}
			}
			if g, w := eTr.Tail(1<<14, ""), rTr.Tail(1<<14, ""); !slices.Equal(g, w) {
				t.Fatalf("scenario %d op %d: trace diverged:\nengine:    %+v\nreference: %+v", sc, op, g, w)
			}
		}
		e.Close()
	}
}

// stepPerNode is Tick without lanes, the per-node path: every node
// runs the whole batch through bmc.Run one period at a time, with the
// audit snapshots around the last period and the broken-floor creep
// after every period when it is on, and the trace merged as Tick merges
// it. e must have one worker. settled marks the nodes an engine with
// lanes hands to bmc.SteadyLanes at the batch's start; from their moves
// stepPerNode works out what those lanes must have done: moved is set
// when a settled node moved while no settled node's move had yet
// stopped its group, and stopped when a settled node's move, before the
// batch's second-last period, put its plant where a reading can be
// implausible.
func stepPerNode(e *Engine, batch int, settled []bool) (moved, stopped bool) {
	e.shardEvents[0] = e.shardEvents[0][:0]
	a, cfg, env := &e.a, &e.p.BMC, &e.env
	lin := e.p.linear()
	amp := math.Abs(lin.NoiseWatts)
	firstStop := batch
	var moves []int // periods of the settled nodes' moves in lanes' reach
	for i := 0; i < e.n; i++ {
		pos := bmc.Pos{PState: a.PState[i], Gating: a.Gating[i]}
		st, stats := &e.state[i], &e.stats[i]
		src := bmc.Source{Plant: &lin, Noise: e.noise[i]}
		if a.Dropout[i] {
			src.Plant = nil
		}
		for p := 0; p < batch; p++ {
			last := p == batch-1 || e.breakFloor
			if last {
				a.PrePState[i], a.PreFailSafe[i] = pos.PState, st.FailSafe
			}
			if a.CapEnabled[i] {
				was := pos
				var ev bmc.Events
				if pos, ev, _ = bmc.Run(cfg, env, a.CapWatts[i], st, stats, pos, &src, 1, false); ev != 0 {
					e.mirror(0, i, ev)
				}
				if settled[i] && pos != was && p < batch-1 {
					moves = append(moves, p)
					if w := lin.Watts(pos); p < firstStop && !(w-amp >= env.MinWatts && w+amp <= env.MaxWatts) {
						firstStop = p
					}
				}
			}
			if last {
				if e.breakFloor && st.FailSafe && pos.PState > 0 {
					pos.PState--
				}
				a.PostPState[i], a.PostFailSafe[i] = pos.PState, st.FailSafe
			}
		}
		stats.Ticks += uint64(batch)
		a.SinceCapChange[i] += int32(batch)
		a.PState[i], a.Gating[i] = pos.PState, pos.Gating
		e.noise[i] = src.Noise
	}
	if e.trace != nil {
		for _, ev := range e.shardEvents[0] {
			e.trace.Append(telemetry.Event{Node: e.names[ev.node], Kind: ev.kind})
		}
	}
	for _, p := range moves {
		moved = moved || p <= firstStop
	}
	return moved, firstStop < batch-2
}

// engineState renders everything a node carries between ticks — the
// controller records with both floats as %b, the noise word — and the
// whole Audit view.
func engineState(e *Engine) string {
	e.Lock()
	defer e.Unlock()
	var b strings.Builder
	for i := 0; i < e.n; i++ {
		st := &e.state[i]
		fmt.Fprintf(&b, "n%d sm=%b raw=%b %+v %+v noise=%d\n", i, st.Smoothed, st.LastRaw, *st, e.stats[i], e.noise[i])
	}
	fmt.Fprintf(&b, "%+v\n", e.a)
	return b.String()
}

// TestLanesMatchPerNodeStepping pins the lane path: random fleets
// ticked by Engine.Tick, which runs settled nodes four at a time through
// bmc.SteadyLanes, and by stepPerNode, which runs every node alone
// through bmc.Run, must agree bit for bit after every operation — every
// node's State, Stats, position and noise word, the Audit slices, the
// trace and the fleet counters. The fleets draw caps on dithering values
// (0.2-0.8 W above an odd watt), tick right after pushes to one node or
// to all while nodes are unsettled, storm sensors, disable caps, break
// the fail-safe floor, run sizes that are not a multiple of four or
// that span more than one lane chunk, batches of 1 to 1 000 periods and
// parallelism 1, 2 and NumCPU, under the default tuning and under
// randomParams'. Lanes must have moved, stopped and been padded.
func TestLanesMatchPerNodeStepping(t *testing.T) {
	scenarios := 300
	if testing.Short() {
		scenarios = 60
	}
	var ticked, moved, stopped, padded int
	for sc := 0; sc < scenarios; sc++ {
		rng := rand.New(rand.NewSource(int64(sc)*104729 + 7))
		nodes, ops := 1+rng.Intn(13), 20+rng.Intn(40)
		if rng.Intn(10) == 0 {
			nodes, ops = laneChunk+rng.Intn(2*laneChunk), 8+rng.Intn(8)
		}
		params := DefaultParams()
		if rng.Intn(2) == 0 {
			params = randomParams(rng)
		}
		seed := rng.Int63()
		breakFloor := rng.Intn(10) == 0
		par := []int{1, 2, runtime.NumCPU()}[rng.Intn(3)]
		e := New(Config{Nodes: nodes, Seed: seed, Params: params, BreakFailSafeFloor: breakFloor, Parallelism: par})
		ref := New(Config{Nodes: nodes, Seed: seed, Params: params, BreakFailSafeFloor: breakFloor, Parallelism: 1})
		var regs [2]*telemetry.Registry
		var trs [2]*telemetry.Trace
		for k, x := range []*Engine{e, ref} {
			regs[k], trs[k] = telemetry.NewRegistry(), telemetry.NewTrace(1<<14)
			trs[k].SetWallClock(nil)
			x.SetTelemetry(regs[k], trs[k])
		}
		capW := func() float64 {
			if rng.Intn(2) == 0 {
				return float64(127+2*rng.Intn(15)) + 0.2 + 0.6*rng.Float64()
			}
			return 100 + float64(rng.Intn(900))/10
		}
		push := func(i int) {
			enabled, c, epoch := rng.Intn(10) != 0, capW(), uint64(rng.Intn(6))
			e.PushPolicy(i, enabled, c, epoch)
			ref.PushPolicy(i, enabled, c, epoch)
		}
		for i := 0; i < nodes; i++ {
			push(i)
		}
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				batch := 1 + rng.Intn(30)
				if rng.Intn(4) == 0 {
					batch = 2 + rng.Intn(999)
				}
				settled := make([]bool, nodes)
				lin := ref.p.linear()
				for i := range settled {
					pos := bmc.Pos{PState: ref.a.PState[i], Gating: ref.a.Gating[i]}
					settled[i] = batch > 1 && ref.a.CapEnabled[i] && !ref.a.Dropout[i] &&
						bmc.Settled(&ref.p.BMC, &ref.env, &lin, &ref.state[i], pos)
				}
				for w := 0; w < e.workers; w++ {
					lo, hi := pool.ShardRange(nodes, e.workers, w)
					for c := lo; c < hi; c += laneChunk {
						if n := countTrue(settled[c:min(c+laneChunk, hi)]); n%4 != 0 {
							padded++
						}
					}
				}
				if slices.Contains(settled, true) {
					ticked++
				}
				e.Tick(batch)
				m, s := stepPerNode(ref, batch, settled)
				if m {
					moved++
				}
				if s {
					stopped++
				}
			case k < 7:
				push(rng.Intn(nodes))
			case k < 8:
				for i := 0; i < nodes; i++ {
					push(i)
				}
			default:
				i, on := rng.Intn(nodes), rng.Intn(3) == 0
				e.SetDropout(i, on)
				ref.SetDropout(i, on)
			}
			if got, want := engineState(e), engineState(ref); got != want {
				t.Fatalf("scenario %d (nodes=%d par=%d breakFloor=%v tuning=%+v) diverged after op %d:\nlanes:\n%s\nper node:\n%s",
					sc, nodes, par, breakFloor, params.BMC, op, got, want)
			}
			for _, name := range []string{"bmc_sensor_faults_total", "bmc_failsafe_entries_total", "bmc_failsafe_exits_total"} {
				if g, w := regs[0].Counter(name).Value(), regs[1].Counter(name).Value(); g != w {
					t.Fatalf("scenario %d op %d: counter %s = %d, per node %d", sc, op, name, g, w)
				}
			}
			if g, w := trs[0].Tail(1<<14, ""), trs[1].Tail(1<<14, ""); !slices.Equal(g, w) {
				t.Fatalf("scenario %d op %d: trace diverged:\nlanes:    %+v\nper node: %+v", sc, op, g, w)
			}
		}
		e.Close()
		ref.Close()
	}
	if ticked == 0 || moved == 0 || stopped == 0 || padded == 0 {
		t.Fatalf("lanes ran in %d ticks, moved in %d, stopped in %d, padded %d chunks", ticked, moved, stopped, padded)
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestTickParallelismDeterminism pins the shard/merge rule: the same
// scenario at parallelism 1, 4, and NumCPU yields bit-identical state
// and a bit-identical trace.
func TestTickParallelismDeterminism(t *testing.T) {
	run := func(par int) (string, []telemetry.Event) {
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTrace(4096)
		tr.SetWallClock(nil)
		e := New(Config{Nodes: 257, Seed: 42, Parallelism: par})
		defer e.Close()
		e.SetTelemetry(reg, tr)
		for i := 0; i < e.Nodes(); i++ {
			e.PushPolicy(i, true, 125+float64(i%40), 1)
		}
		e.Tick(50)
		for i := 0; i < e.Nodes(); i += 3 {
			e.SetDropout(i, true)
		}
		e.Tick(30)
		for i := 0; i < e.Nodes(); i += 3 {
			e.SetDropout(i, false)
		}
		e.Tick(40)
		return snapshotEngine(e), tr.Tail(4096, "")
	}
	base, baseTr := run(1)
	for _, par := range []int{4, runtime.NumCPU()} {
		got, gotTr := run(par)
		if got != base {
			t.Fatalf("parallelism %d: state diverged from sequential run", par)
		}
		if len(gotTr) != len(baseTr) {
			t.Fatalf("parallelism %d: trace length %d != %d", par, len(gotTr), len(baseTr))
		}
		for i := range gotTr {
			if gotTr[i] != baseTr[i] {
				t.Fatalf("parallelism %d: trace event %d = %+v, want %+v", par, i, gotTr[i], baseTr[i])
			}
		}
	}
}

// TestTickZeroAlloc pins the perf contract: the batched step allocates
// nothing in steady state, sequential or sharded, telemetry wired.
func TestTickZeroAlloc(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := New(Config{Nodes: 512, Seed: 7, Parallelism: par})
		e.SetTelemetry(telemetry.NewRegistry(), nil)
		for i := 0; i < e.Nodes(); i++ {
			e.PushPolicy(i, true, 140, 1)
		}
		e.Tick(10) // warm up (EWMA seeded, shard buffers sized)
		if n := testing.AllocsPerRun(20, func() { e.Tick(5) }); n != 0 {
			t.Errorf("parallelism %d: Tick allocates %.1f allocs/run, want 0", par, n)
		}
		e.Close()
	}
}

func TestPolicyLifecycle(t *testing.T) {
	e := New(Config{Nodes: 2, Seed: 3, Parallelism: 1})
	defer e.Close()

	// Infeasible cap: applied, flagged, node pins at the floor.
	e.PushPolicy(0, true, 100, 1)
	if h := e.NodeHealth(0); !h.InfeasibleCap {
		t.Fatal("cap below floor not flagged infeasible")
	}
	e.Tick(300)
	if got, want := e.TrueWatts(0), e.FloorWatts(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("infeasible cap: node at %.2f W, want pinned at floor %.2f W", got, want)
	}
	if e.PState(0) != NumPStates-1 || e.GatingLevel(0) != MaxGatingLevel {
		t.Fatalf("infeasible cap: ps=%d gt=%d, want fully escalated", e.PState(0), e.GatingLevel(0))
	}

	// Feasible cap converges under it (modulo noise on the sensor,
	// truth is noise-free).
	e.PushPolicy(1, true, 140, 1)
	e.Tick(300)
	if w := e.TrueWatts(1); w > 140 {
		t.Fatalf("feasible 140 W cap: true draw %.2f W still over", w)
	}

	// Disable restores full speed and clears gating.
	e.PushPolicy(0, false, 0, 2)
	if e.PState(0) != 0 || e.GatingLevel(0) != 0 {
		t.Fatalf("disable: ps=%d gt=%d, want full speed", e.PState(0), e.GatingLevel(0))
	}
	if h := e.NodeHealth(0); h.InfeasibleCap {
		t.Fatal("disable left infeasible flag set")
	}
}

func TestFailSafeRoundTrip(t *testing.T) {
	p := DefaultParams().BMC
	e := New(Config{Nodes: 1, Seed: 11, Parallelism: 1})
	defer e.Close()
	e.PushPolicy(0, true, 140, 1)
	e.Tick(20)

	e.SetDropout(0, true)
	e.Tick(p.FaultToleranceTicks - 1)
	if e.NodeHealth(0).FailSafe {
		t.Fatal("entered fail-safe before FaultToleranceTicks")
	}
	e.Tick(1)
	if !e.NodeHealth(0).FailSafe {
		t.Fatal("did not enter fail-safe after FaultToleranceTicks dropouts")
	}
	if ps := e.PState(0); ps < p.FailSafePState {
		t.Fatalf("fail-safe holding ps=%d, want >= floor %d", ps, p.FailSafePState)
	}

	e.SetDropout(0, false)
	e.Tick(p.RecoveryTicks - 1)
	if !e.NodeHealth(0).FailSafe {
		t.Fatal("left fail-safe before RecoveryTicks sane readings")
	}
	e.Tick(1)
	if e.NodeHealth(0).FailSafe {
		t.Fatal("still in fail-safe after RecoveryTicks sane readings")
	}

	st := e.Stats()
	if st.FailSafeEntries != 1 || st.SensorFaults == 0 {
		t.Fatalf("stats = %+v, want 1 fail-safe entry and >0 sensor faults", st)
	}
}

// TestManagementWattsAfterUncap: a disabled policy runs no law, so once
// a node is uncapped the reading served to management polls is the
// plant's draw, not the estimate the last capped period left behind.
func TestManagementWattsAfterUncap(t *testing.T) {
	e := New(Config{Nodes: 1, Seed: 1, Parallelism: 1})
	defer e.Close()
	e.PushPolicy(0, true, 140, 1)
	e.Tick(50)
	if w := e.ManagementWatts(0); w < 130 || w > 141 {
		t.Fatalf("capped at 140 W, node reports %v W", w)
	}
	e.PushPolicy(0, false, 0, 1)
	e.Tick(50)
	if got, want := e.ManagementWatts(0), e.TrueWatts(0); got != want {
		t.Fatalf("uncapped node reports %v W, draws %v W", got, want)
	}
}

func TestEpochFencing(t *testing.T) {
	e := New(Config{Nodes: 1, Seed: 1, Parallelism: 1})
	defer e.Close()
	e.PushPolicy(0, true, 140, 5)
	e.PushPolicy(0, true, 150, 3) // stale epoch: counted, policy still lands (legacy parity)
	e.Lock()
	a := e.Audit()
	regs, epoch := a.EpochRegressions[0], e.actEpoch[0]
	e.Unlock()
	if regs != 1 || epoch != 5 {
		t.Fatalf("regressions=%d epoch=%d, want 1 regression and high-water 5", regs, epoch)
	}
}

// BenchmarkEngineTick times one 10 000-node fleet tick (ns/op): one
// long batch at parallelism 1 and NumCPU, one tick per call (the chaos
// harness's shape, where each node makes a single bmc.Run call per
// tick), and a sensor storm on every 8th node, whose law raises an
// event every period. These start timing after Tick(5), inside the
// settling transient. settled is bench's fleet_soak shape instead: a
// settled fleet on mixed caps, half of them quiet (1 W above a
// P-state's draw, an odd watt) and half dithering (0.2–0.8 W above
// it, so the target sits within 0.3 W of the draw), ticked 1 000 periods per
// op; it reports ns per node-period.
func BenchmarkEngineTick(b *testing.B) {
	type shape struct {
		name      string
		par       int
		batched   bool
		stormEach int
	}
	shapes := []shape{
		{"par=1", 1, true, 0},
		{fmt.Sprintf("par=%d", runtime.NumCPU()), runtime.NumCPU(), true, 0},
		{"batch=1", 1, false, 0},
		{"storm", 1, true, 8},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			const nodes = 10000
			e := New(Config{Nodes: nodes, Seed: 1, Parallelism: sh.par})
			defer e.Close()
			for i := 0; i < nodes; i++ {
				e.PushPolicy(i, true, 140, 1)
				if sh.stormEach > 0 && i%sh.stormEach == 0 {
					e.SetDropout(i, true)
				}
			}
			e.Tick(5)
			b.ReportAllocs()
			b.ResetTimer()
			if sh.batched {
				e.Tick(b.N)
			} else {
				for n := 0; n < b.N; n++ {
					e.Tick(1)
				}
			}
			b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-ticks/s")
		})
	}
	b.Run("settled", func(b *testing.B) {
		const nodes, periods = 10000, 1000
		e := New(Config{Nodes: nodes, Seed: 1, Parallelism: 1})
		defer e.Close()
		for i := 0; i < nodes; i++ {
			capW := 134 + float64(2*(i/2%8)) // quiet: 1 W over P12-P5's draw
			if i%2 == 1 {
				capW += 1.2 + 0.1*float64(i/2%7) // dithering: 0.2-0.8 W over it
			}
			e.PushPolicy(i, true, capW, 1)
		}
		e.Tick(periods)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			e.Tick(periods)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(nodes)*periods*float64(b.N)), "ns/node-period")
	})
}

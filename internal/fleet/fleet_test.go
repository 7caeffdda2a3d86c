package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nodecap/internal/bmc"
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

func (r *refPlant) PowerWatts() float64 {
	r.rng += splitmixGamma
	f := float64(splitmix(r.rng)>>11) / (1 << 53)
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
	plant := &refPlant{p: p, rng: noiseStreamKey(seed, i)}
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
// observable field (rendered with %b floats, so equality is bit-exact)
// after every operation. Both sides run the one law in bmc/kernel.go,
// so what this guards is the two adapters around it: when the noise is
// drawn, how the envelope is resolved, what a policy install touches,
// where the per-batch counters land and what the audit snapshots see.
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
		ref := make([]*refNode, nodes)
		for i := range ref {
			ref[i] = newRefNode(i, seed, params, breakFloor)
		}

		ops := 30 + rng.Intn(70)
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // advance a batch of ticks
				batch := 1 + rng.Intn(12)
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
		}
		e.Close()
	}
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

func BenchmarkEngineTick(b *testing.B) {
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			const nodes = 10000
			e := New(Config{Nodes: nodes, Seed: 1, Parallelism: par})
			defer e.Close()
			for i := 0; i < nodes; i++ {
				e.PushPolicy(i, true, 140, 1)
			}
			e.Tick(5)
			b.ReportAllocs()
			b.ResetTimer()
			e.Tick(b.N)
			b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-ticks/s")
		})
	}
}

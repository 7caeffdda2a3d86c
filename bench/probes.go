package main

// Micro-probes: each times one layer's public functions from outside,
// on inputs of its own. They run after a traced run's timed phase, on
// the workload whose end-to-end metrics the layer is predicted to move
// (README.md has the table), and gate nothing.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nodecap/internal/bmc"
	"nodecap/internal/cache"
	"nodecap/internal/chaos"
	"nodecap/internal/dcm/store"
	"nodecap/internal/dram"
	"nodecap/internal/fleet"
	"nodecap/internal/ipmi"
	"nodecap/internal/machine"
	"nodecap/internal/mem"
	"nodecap/internal/nodeagent"
	"nodecap/internal/pool"
	"nodecap/internal/power"
	"nodecap/internal/shard"
	"nodecap/internal/simtime"
	"nodecap/internal/telemetry"
	"nodecap/internal/tlb"
	"nodecap/internal/workloads/stereo"
	"nodecap/internal/workloads/stride"
)

// probeSink keeps results alive so the compiler cannot drop a probed call.
var probeSink uint64

// perCall times fn in five batches of n calls and returns the median
// batch's nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	var batches [5]float64
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(batches[:])
}

// once times fn in ms.
func once(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) * msPerNs
}

// probeError records a probe that could not run: the metric stays 0 and
// the table says why.
func probeError(name string, err error) {
	fmt.Printf("probe %s failed: %v\n", name, err)
}

func runProbes(workload string, m *metrics, e *env) {
	scale := e.scale()
	switch workload {
	case "paper_sweep":
		probeSimulator(m, scale)
	case "fleet_soak":
		probeFleet(m, e, scale)
		probeControlPlane(m, e, scale)
		probeStore(m, e, scale)
		probeChaos(m, e)
		probeShared(m, e, scale)
	default:
		probeWire(m, e, scale)
		probeNodeagent(m, e)
	}
}

// --- paper_sweep: the node simulator --------------------------------

type stubPlant struct{ pstate, gate int }

func (p *stubPlant) PowerWatts() float64  { return 157 - 2*float64(p.pstate) - 1.2*float64(p.gate) }
func (p *stubPlant) PStateIndex() int     { return p.pstate }
func (p *stubPlant) NumPStates() int      { return 16 }
func (p *stubPlant) SetPState(i int)      { p.pstate = min(max(i, 0), 15) }
func (p *stubPlant) GatingLevel() int     { return p.gate }
func (p *stubPlant) MaxGatingLevel() int  { return 4 }
func (p *stubPlant) SetGatingLevel(l int) { p.gate = min(max(l, 0), 4) }

func probeSimulator(m *metrics, scale int) {
	// Machine.Load over footprints resident in each level: a cyclic
	// line-stride walk larger than the level above always misses it.
	for _, lv := range []struct {
		name      string
		footprint int
	}{{"l1", 16 << 10}, {"l2", 128 << 10}, {"l3", 4 << 20}, {"dram", 64 << 20}} {
		mc := machine.New(machine.Romley())
		base := mc.Alloc(lv.footprint)
		lines := lv.footprint / 64
		for i := 0; i < lines; i++ {
			mc.Load(base + uint64(i)*64)
		}
		n := max(lines, 400_000) / scale
		m.set("machine.load_ns."+lv.name, perCall(n, func(i int) { mc.Load(base + uint64(i%lines)*64) }), 5*n)
	}
	m.set("machine.new_us", perCall(max(20/scale, 2), func(int) {
		probeSink += uint64(machine.New(machine.Romley()).GatingLevel())
	})/1e3, 100/scale)

	hier := mem.DefaultConfig()
	c := cache.New(hier.L2)
	line := uint64(hier.L2.LineBytes)
	resident := uint64(hier.L2.SizeBytes/hier.L2.LineBytes) / 2
	thrash := uint64(hier.L2.SizeBytes/hier.L2.LineBytes) * 2
	n := 2_000_000 / scale
	m.set("cache.access_ns.hit", perCall(n, func(i int) { c.AccessPacked(uint64(i)%resident*line, false) }), 5*n)
	m.set("cache.access_ns.miss", perCall(n, func(i int) { c.AccessPacked(uint64(i)%thrash*line, false) }), 5*n)

	t := tlb.New(hier.DTLB)
	page := uint64(hier.DTLB.PageBytes)
	pages := uint64(hier.DTLB.Entries) * 2
	m.set("tlb.lookup_ns.hit", perCall(n, func(i int) { t.Lookup(uint64(i&7) * page) }), 5*n)
	m.set("tlb.lookup_ns.miss", perCall(n, func(i int) { t.Lookup(uint64(i) % pages * page) }), 5*n)

	d := dram.New(hier.DRAM)
	var now simtime.Duration
	m.set("dram.access_ns", perCall(n, func(i int) { now += d.Access(now, uint64(i)*4160, false) }), 5*n)

	ctl := bmc.New(bmc.DefaultConfig(), &stubPlant{})
	if err := ctl.SetPolicy(bmc.Policy{Enabled: true, CapWatts: 140}); err != nil {
		probeError("bmc.tick_ns", err)
	} else {
		m.set("bmc.tick_ns", perCall(n, func(int) { ctl.Tick() }), 5*n)
	}

	pw := power.DefaultParams()
	state := power.NodeState{FreqMHz: 2000, VoltageMV: 1000, ActiveCores: 1, Activity: 0.7, MemUtil: 0.3, DRAMDuty: 1, ClockDuty: 1}
	var watts float64
	m.set("power.node_watts_ns", perCall(n, func(i int) {
		state.FreqMHz = 1200 + i&1023
		watts += pw.NodeWatts(state)
	}), 5*n)
	probeSink += uint64(watts)

	// The paper's own stride probe, reduced as the Figure 4 benchmark
	// reduces it.
	sc := stride.DefaultConfig()
	sc.MaxArrayBytes, sc.TouchesPerPoint, sc.WarmCapTouches = 8<<20, 512, 128<<10
	if scale > 1 {
		sc = stride.SmallConfig()
	}
	m.set("workloads.stride_ms.uncapped", once(func() { machine.New(machine.Romley()).RunWorkload(stride.New(sc)) }), 1)
	m.set("workloads.stride_ms.cap120", once(func() {
		mc := machine.New(machine.Romley())
		setPolicy(mc, 120)
		mc.RunWorkload(stride.New(sc))
	}), 1)
}

// setPolicy caps mc as Experiment.Run does. A 120 W cap lies below the
// platform floor: the BMC applies it and says so, which is the paper's
// 120 W row, not a failure.
func setPolicy(mc *machine.Machine, capWatts float64) {
	if err := mc.SetPolicy(capWatts); err != nil && !errors.Is(err, bmc.ErrInfeasibleCap) {
		probeError("machine.SetPolicy", err)
	}
}

// probeRuns times single grid points directly — machine.New, SetPolicy,
// RunWorkload — at the seeds Experiment.Run gives them.
func (p *paperSweep) probeRuns(m *metrics) {
	for k, name := range sweepNames {
		for _, pt := range []struct {
			label string
			cap   float64
			row   int // the grid row Experiment.Run gives this cap
		}{{"base", 0, 0}, {"cap120", 120, len(sweepCaps)}} {
			seed := uint64(pt.row+1) * 1000
			m.set("machine.run_ms."+name+"."+pt.label, once(func() {
				mc := machine.New(p.machineConfig(seed))
				setPolicy(mc, pt.cap)
				mc.RunWorkload(p.mk[k]())
			}), 1)
		}
	}
}

// --- fleet_soak: engine, managers, journal, chaos -------------------

func probeFleet(m *metrics, e *env, scale int) {
	nodes, ticks := 10_000/scale, 200
	parN := min(e.nproc, 4)
	_, lo := budgets(e.seed)
	// capped builds an engine in the state the workload keeps it in:
	// every node under a cap, its controller settled.
	capped := func(par int) *fleet.Engine {
		eng := fleet.New(fleet.Config{Nodes: nodes, Seed: e.seed, Parallelism: par})
		for i := 0; i < nodes; i++ {
			eng.PushPolicy(i, true, lo, 0)
		}
		eng.Tick(ticks) // also starts the shard workers
		return eng
	}
	tickNs := func(par int) float64 {
		eng := capped(par)
		defer eng.Close()
		return perCall(1, func(int) { eng.Tick(ticks) }) / float64(nodes*ticks)
	}
	par1 := tickNs(1)
	parNns := tickNs(parN)
	m.set("fleet.tick_ns_per_node.parN", parNns, 5)
	m.set("fleet.tick_par_speedup_x", par1/parNns, 5)

	eng := capped(1)
	defer eng.Close()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	eng.Tick(ticks)
	runtime.ReadMemStats(&ms)
	m.set("fleet.tick_allocs", float64(ms.Mallocs-mallocs), 1)

	// Settling: simulated control periods from a cap push to true
	// power at or under the cap. A function of the control law and the
	// seed, not of the host. The push is a 10 W cut.
	settleNodes := min(nodes, 256)
	settled := make([]float64, settleNodes)
	for i := range settled {
		eng.PushPolicy(i, true, lo-10, 0)
	}
	const maxSettle = 400
	for tick := 1; tick <= maxSettle; tick++ {
		eng.Tick(1)
		for i := range settled {
			if settled[i] == 0 && eng.TrueWatts(i) <= lo-10 {
				settled[i] = float64(tick)
			}
		}
	}
	for i := range settled {
		if settled[i] == 0 {
			settled[i] = maxSettle
		}
	}
	sort.Float64s(settled)
	m.set("fleet.settle_ticks_p50", quantile(settled, 0.5), settleNodes)
	m.set("fleet.settle_ticks_max", settled[len(settled)-1], settleNodes)
}

// probeControlPlane times one manager's public calls at 2 500 nodes,
// a leaf's share of the 10 000-node rig.
func probeControlPlane(m *metrics, e *env, scale int) {
	n := 2500 / scale
	p, err := newPlant(n, false, e.seed, nil)
	if err != nil {
		probeError("dcm.*", err)
		return
	}
	defer p.close()
	mgr, err := p.newManager(filepath.Join(e.dir, "probe-dcm"), e.nproc)
	if err != nil {
		probeError("dcm.*", err)
		return
	}
	defer mgr.Close()
	t0 := time.Now()
	for i, name := range p.names {
		if err := mgr.AddNode(name, p.addrs[i]); err != nil {
			probeError("dcm.add_node_us", err)
			return
		}
	}
	m.set("dcm.add_node_us", float64(time.Since(t0))/1e3/float64(n), n)
	p.eng.Tick(20)
	mgr.Poll()

	m.set("dcm.allocate_ms.n2500", perCall(4, func(int) {
		if _, err := mgr.AllocateBudget(140*float64(n), p.names); err != nil {
			probeError("dcm.allocate_ms.n2500", err)
		}
	})*msPerNs, 20)
	m.set("dcm.set_cap_us.n2500", perCall(40, func(i int) {
		if err := mgr.SetNodeCap(p.names[0], 140+float64(i&1)); err != nil {
			probeError("dcm.set_cap_us.n2500", err)
		}
	})/1e3, 200)
	m.set("dcm.nodes_ms.n2500", perCall(4, func(int) { probeSink += uint64(len(mgr.Nodes())) })*msPerNs, 20)

	ring := shard.NewRing(ringSeed, 0)
	ring.SetLeaves([]string{leafName(0), leafName(1), leafName(2), leafName(3)})
	calls := 1_000_000 / scale
	m.set("shard.ring_owner_ns", perCall(calls, func(i int) {
		if _, ok := ring.Owner(uint32(i)); ok {
			probeSink++
		}
	}), 5*calls)
}

func nodeRecord(i int, capWatts float64) store.Record {
	return store.Record{Op: store.OpSetCap, Name: nodeName(i), Node: &store.NodeRecord{
		Addr: fmt.Sprintf("loop:%d", i), MinCapWatts: 122.2, MaxCapWatts: maxCapWatts,
		HaveCap: true, CapEnabled: true, CapWatts: capWatts,
	}}
}

func probeStore(m *metrics, e *env, scale int) {
	n := 2500 / scale
	dir := filepath.Join(e.dir, "probe-store")
	st, err := store.Open(dir)
	if err != nil {
		probeError("store.*", err)
		return
	}
	st.SetSync(false)
	st.SnapshotEvery = 1 << 30 // appends alone; compaction has its own probe
	apply := func(i int) {
		if err := st.Apply(nodeRecord(i%n, 130+float64(i%20))); err != nil {
			probeError("store.apply", err)
		}
	}
	for i := 0; i < n; i++ {
		apply(i)
	}
	m.set("store.apply_us", perCall(n, apply)/1e3, 5*n)
	m.set("store.compact_ms.n2500", perCall(1, func(int) {
		if err := st.Compact(); err != nil {
			probeError("store.compact_ms.n2500", err)
		}
	})*msPerNs, 5)

	// Feed → Replica → Ack, in process: HA is on no gated path yet.
	repDir := filepath.Join(e.dir, "probe-replica")
	rst, err := store.Open(repDir)
	if err != nil {
		probeError("store.repl_us_per_record", err)
		return
	}
	rst.SetSync(false)
	rep := store.NewReplica(rst)
	feed := st.NewFeed(rep.Hello())
	pump := func() (frames int, err error) {
		for {
			batch, err := feed.Pending(64)
			if err != nil || len(batch) == 0 {
				return frames, err
			}
			for _, fr := range batch {
				ack, err := rep.Handle(fr)
				if err != nil {
					return frames, err
				}
				if ack != nil {
					feed.Ack(*ack)
				}
				frames++
			}
		}
	}
	if _, err := pump(); err != nil { // the snapshot baseline
		probeError("store.repl_us_per_record", err)
	}
	const replRecords = 512 // inside the feed's retained ring
	for i := 0; i < replRecords; i++ {
		apply(i)
	}
	t0 := time.Now()
	frames, err := pump()
	if err != nil || frames == 0 {
		probeError("store.repl_us_per_record", fmt.Errorf("%d frames: %v", frames, err))
	} else {
		m.set("store.repl_us_per_record", float64(time.Since(t0))/1e3/float64(frames), frames)
	}
	rst.Close()

	st.SetSync(true)
	m.set("store.apply_sync_us", perCall(10, apply)/1e3, 50)
	st.SetSync(false)

	// A crash leaves the whole journal to replay.
	for i := 0; i < 2*n; i++ {
		apply(i)
	}
	if err := st.Crash(); err != nil {
		probeError("store.open_replay_ms.n2500", err)
		return
	}
	m.set("store.open_replay_ms.n2500", once(func() {
		re, err := store.Open(dir)
		if err != nil {
			probeError("store.open_replay_ms.n2500", err)
			return
		}
		probeSink += uint64(re.Replayed())
		re.Close()
	}), 1)
}

// probeChaos times CI's chaos verdicts. They move no gated metric; they
// record time-to-verdict and require pass=true.
func probeChaos(m *metrics, e *env) {
	runs := []struct {
		metric, scenario   string
		seed               int64
		nodes, ticks       int
		pollEvery, rebalEv int
	}{
		{"chaos.verdict_ms.mixed", "mixed", 7, 6, 1500, 0, 0},
		{"chaos.verdict_ms.shard_handoff", "shard-handoff", 7, 12, 1200, 0, 0},
		// Solo registration is quadratic in nodes; 2 000 shows it.
		{"chaos.verdict_ms.solo2k", "sensor-storm", 1, 2000, 200, 100, 100},
	}
	for k, r := range runs {
		if e.toy && r.nodes > 100 {
			r.nodes = 100
		}
		s, err := chaos.Build(r.scenario, r.seed, r.ticks, r.nodes)
		if err != nil {
			probeError(r.metric, err)
			continue
		}
		s.StateDir = filepath.Join(e.dir, fmt.Sprintf("probe-chaos-%d", k))
		if err := os.MkdirAll(s.StateDir, 0o755); err != nil {
			probeError(r.metric, err)
			continue
		}
		s.PollEvery, s.RebalanceEvery = r.pollEvery, r.rebalEv
		var v chaos.Verdict
		d := once(func() { v, err = chaos.Run(s) })
		if err != nil || !v.Pass {
			probeError(r.metric, fmt.Errorf("pass=%v violations=%d err=%v", v.Pass, v.ViolationCount, err))
			continue
		}
		m.set(r.metric, d, 1)
	}
}

func probeShared(m *metrics, e *env, scale int) {
	g := pool.NewGang(min(e.nproc, 4))
	defer g.Close()
	n := 100_000 / scale
	m.set("pool.gang_dispatch_ns", perCall(n, func(int) { g.Run(g.Workers(), func(_, _, _ int) {}) }), 5*n)

	reg := telemetry.NewRegistry()
	ctr := reg.Counter("bench_probe_total")
	n = 5_000_000 / scale
	m.set("telemetry.counter_inc_ns", perCall(n, func(int) { ctr.Inc() }), 5*n)
	tr := telemetry.NewTrace(telemetry.DefaultTraceCapacity)
	n = 1_000_000 / scale
	m.set("telemetry.trace_append_ns", perCall(n, func(i int) {
		tr.Append(telemetry.Event{Node: "node-00000", Kind: telemetry.EvDrift, Watts: float64(i)})
	}), 5*n)
}

// --- budget_push and poll_sweep: the wire ---------------------------

func probeWire(m *metrics, e *env, scale int) {
	p, err := newPlant(ipmi.MaxBatchEntries, true, e.seed, nil)
	if err != nil {
		probeError("ipmi.*", err)
		return
	}
	defer p.close()
	p.eng.Tick(20)

	req := ipmi.Frame{Seq: 1, NetFn: ipmi.NetFnOEM, Cmd: ipmi.CmdGetPowerReading}
	resp := p.srvs[0].Handle(req)
	n := 1_000_000 / scale
	m.set("ipmi.frame_codec_ns", perCall(n, func(int) {
		b, err := resp.Marshal()
		if err == nil {
			_, err = ipmi.ReadFrame(bytes.NewReader(b))
		}
		if err != nil {
			probeError("ipmi.frame_codec_ns", err)
		}
	}), 5*n)
	m.set("ipmi.server_handle_ns", perCall(n, func(int) { probeSink += uint64(len(p.srvs[0].Handle(req).Payload)) }), 5*n)

	mux := ipmi.NewMux()
	ids := make([]uint32, ipmi.MaxBatchEntries)
	sets := make([]ipmi.BatchSetEntry, ipmi.MaxBatchEntries)
	for i, srv := range p.srvs {
		mux.Register(uint32(i), srv)
		ids[i] = uint32(i)
		sets[i] = ipmi.BatchSetEntry{ID: uint32(i), Limit: ipmi.PowerLimit{Enabled: true, CapWatts: 140}}
	}
	batch := func(name string, cmd uint8, payload []byte, err error) {
		if err != nil {
			probeError(name, err)
			return
		}
		fr := ipmi.Frame{Seq: 1, NetFn: ipmi.NetFnOEM, Cmd: cmd, Payload: payload}
		n := 20_000 / scale
		m.set(name, perCall(n, func(int) { probeSink += uint64(len(mux.Handle(fr).Payload)) })/1e3, 5*n)
	}
	pollReq, err := ipmi.EncodeBatchPollRequest(ids)
	batch("ipmi.batch_poll24_us", ipmi.CmdBatchPoll, pollReq, err)
	setReq, err := ipmi.EncodeBatchSetRequest(sets)
	batch("ipmi.batch_set24_us", ipmi.CmdBatchSet, setReq, err)

	n = 40 / min(scale, 10)
	m.set("ipmi.dial_us", perCall(n, func(i int) {
		c, err := ipmi.DialTimeout(p.addrs[i%len(p.addrs)], wireConnectTimeout, wireRequestTimeout)
		if err != nil {
			probeError("ipmi.dial_us", err)
			return
		}
		c.Close()
	})/1e3, 5*n)
}

// probeNodeagent records ROADMAP's 23 ms stage: management commands
// drain only at the simulated machine's control hook, so a loopback
// poll of a busy agent is bound by the host scheduler.
func probeNodeagent(m *metrics, e *env) {
	calls := 50
	if e.toy {
		calls = 3
	}
	small := stereo.SmallConfig()
	agent := nodeagent.New(machine.Romley(), nodeagent.Options{
		Workload: func() machine.Workload { return stereo.New(small) },
	})
	defer agent.Stop()
	srv := ipmi.NewServer(agent)
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		probeError("nodeagent.*", err)
		return
	}
	c, err := ipmi.DialTimeout(addr, wireConnectTimeout, wireRequestTimeout)
	if err != nil {
		probeError("nodeagent.*", err)
		return
	}
	defer c.Close()
	var poll, do []float64
	for i := 0; i < calls; i++ {
		poll = append(poll, once(func() {
			if _, err := c.GetPowerReading(); err != nil {
				probeError("nodeagent.poll_ms_p50", err)
			}
		}))
		do = append(do, once(func() { agent.Do(func(*machine.Machine) {}) }))
	}
	m.set("nodeagent.poll_ms_p50", median(poll), calls)
	m.set("nodeagent.do_ms_p50", median(do), calls)
}

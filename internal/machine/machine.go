// Package machine assembles the simulated node: cores with DVFS,
// the memory hierarchy, the power model, the wall power meter, and the
// BMC with its capping policy — the complete platform of Section III
// of the paper. Workloads execute against a Machine through a small
// operation API (Compute/Load/Store), and the machine advances virtual
// time, fires periodic control events, and collects every metric the
// study reports.
package machine

import (
	"nodecap/internal/bmc"
	"nodecap/internal/counters"
	"nodecap/internal/cpu"
	"nodecap/internal/mem"
	"nodecap/internal/power"
	"nodecap/internal/sensors"
	"nodecap/internal/simtime"
)

// SMMConfig models the firmware overhead of enforcing a cap: each
// control tick the management interrupt handler runs briefly,
// stalling the core and touching its own code and data pages. This is
// the "overhead associated with power capping" the paper suspects
// behind the memory-metric perturbations it sees even at a 160 W cap.
type SMMConfig struct {
	CodePages      int
	DataPages      int
	FetchesPerTick int
	LoadsPerTick   int
	StallPerTick   simtime.Duration
}

// DefaultSMM returns the calibrated firmware-overhead model.
func DefaultSMM() SMMConfig {
	return SMMConfig{
		CodePages:      24,
		DataPages:      8,
		FetchesPerTick: 48,
		LoadsPerTick:   12,
		StallPerTick:   1 * simtime.Microsecond,
	}
}

// Config assembles a Machine.
type Config struct {
	Hierarchy mem.Config
	Power     power.Params
	PStates   cpu.PStateTable
	CStates   []cpu.CState
	BMC       bmc.Config
	Ladder    GatingLadder
	SMM       SMMConfig
	// MeterInterval is the wall meter's sampling period (the scaled
	// analogue of the Watts Up! meter's 1 s).
	MeterInterval   simtime.Duration
	MeterNoiseWatts float64
	// IFetchEvery is the number of committed instructions per modelled
	// instruction fetch.
	IFetchEvery int
	// SpecEvery is the number of committed memory operations per
	// speculative access at the fastest P-state; the speculative rate
	// scales with frequency, which is why executed-instruction and L1
	// miss counts drift slightly across caps (Section IV).
	SpecEvery int
	// Seed perturbs run-to-run phase (meter noise sequence, SMM code
	// walk) so repeated runs average like the paper's five trials.
	Seed uint64
	// ControlHook, when set, is invoked at every BMC control tick
	// after the controller has run. The node daemon uses it to apply
	// out-of-band management commands (policy pushes over IPMI) at a
	// point where mutating the machine is safe, even mid-workload.
	ControlHook func(m *Machine)
	// WrapPlant, when set, wraps the actuation/sensing surface the BMC
	// sees. Fault-injection tests and the node daemon use it to slide a
	// faults.FaultyPlant between the firmware and the silicon; the
	// machine itself is untouched.
	WrapPlant func(p bmc.Plant) bmc.Plant
	// OpTrace, when set, observes every committed operation the
	// running workload issues (Compute/Load/Store), in order. The
	// trace package uses it to record replayable workload traces; the
	// hook sees logical operations, not the machine's synthesized
	// fetches or firmware traffic.
	OpTrace func(op TraceOp)
	// TStates, when non-empty, appends ACPI clock-modulation duty
	// cycles (descending, e.g. 0.75, 0.5, 0.25, 0.125) to the gating
	// ladder as its deepest levels. The paper's platform did not use
	// them — its 120 W caps overshoot — so they are off by default;
	// enabling them is the "could the platform have honoured 120 W?"
	// ablation.
	TStates []float64
}

// Romley returns the full configuration of the modelled S2R2 platform
// with two 2.7 GHz eight-core E5-2680 processors (the study pins its
// applications to a single core, which is what the machine executes).
func Romley() Config {
	return Config{
		Hierarchy:       mem.DefaultConfig(),
		Power:           power.DefaultParams(),
		PStates:         cpu.SandyBridgePStates(),
		CStates:         cpu.SandyBridgeCStates(),
		BMC:             bmc.DefaultConfig(),
		Ladder:          DefaultLadder(),
		SMM:             DefaultSMM(),
		MeterInterval:   50 * simtime.Microsecond,
		MeterNoiseWatts: 0.8,
		IFetchEvery:     12,
		SpecEvery:       32,
	}
}

// Address-space layout: fixed, page-aligned regions far enough apart
// that workload data, workload code, and firmware never collide.
const (
	codeRegionBase = 16 << 20  // workload code
	smmRegionBase  = 512 << 20 // firmware code+data
	dataRegionBase = 1 << 30   // workload heap allocations
)

// Machine is one simulated node.
type Machine struct {
	cfg       Config
	clock     *simtime.Clock
	events    *simtime.EventQueue
	nextEvent simtime.Duration
	hasEvent  bool
	// The two periodic events, created once and re-armed from their own
	// callbacks so that a firing allocates nothing.
	meterEvent, bmcEvent *simtime.Event

	core  *cpu.Core
	hier  *mem.Hierarchy
	meter *sensors.Meter
	ctrl  *bmc.BMC

	gatingLevel int
	clockDuty   float64 // T-state duty; 0 or 1 = unmodulated
	running     bool

	// Power-window accumulators since the last power update.
	accBusy, accStall simtime.Duration
	lastPowerAt       simtime.Duration
	curPower          float64
	curActivity       float64
	curMemUtil        float64

	// Workload facilities.
	allocNext    uint64
	codePages    int
	ifetchDown   int
	fetchSeq     uint64
	specAcc      float64
	pendingStall simtime.Duration

	// Hot-path constants hoisted out of cfg at construction.
	fastestMHz  int
	specLineOff uint64
	// specInc is the speculative-access accumulator's per-memop
	// increment at frequency specFreq, refreshed when the P-state moves.
	specInc  float64
	specFreq int
	// cyc turns Compute's cycle counts into time without a divide.
	cyc simtime.CycleTable

	smmSeq uint64
}

// New builds a machine from cfg; invalid static configuration panics.
func New(cfg Config) *Machine {
	if err := cfg.Power.Validate(); err != nil {
		panic(err)
	}
	if len(cfg.Ladder) == 0 {
		panic("machine: empty gating ladder")
	}
	if cfg.MeterInterval <= 0 {
		panic("machine: non-positive meter interval")
	}
	if cfg.IFetchEvery <= 0 {
		cfg.IFetchEvery = 12
	}
	if cfg.SpecEvery <= 0 {
		cfg.SpecEvery = 32
	}
	m := &Machine{
		cfg:         cfg,
		clock:       simtime.NewClock(),
		events:      simtime.NewEventQueue(),
		core:        cpu.MustCore(0, cfg.PStates, cfg.CStates),
		hier:        mem.New(cfg.Hierarchy),
		meter:       sensors.NewMeter(cfg.MeterNoiseWatts),
		allocNext:   dataRegionBase,
		codePages:   16,
		ifetchDown:  cfg.IFetchEvery,
		fastestMHz:  cfg.PStates.Fastest().FreqMHz,
		specLineOff: uint64(cfg.Hierarchy.L1D.LineBytes),
	}
	var pl bmc.Plant = (*plant)(m)
	if cfg.WrapPlant != nil {
		if wrapped := cfg.WrapPlant(pl); wrapped != nil {
			pl = wrapped
		}
	}
	m.ctrl = bmc.New(cfg.BMC, pl)
	// The node draws idle power from the instant it exists; events
	// will refine the estimate as soon as activity accumulates.
	m.curPower = cfg.Power.NodeWatts(power.NodeState{DRAMDuty: 1})
	// Perturb the run phase so repeated runs differ like real trials.
	m.clock.Advance(simtime.Duration(cfg.Seed%97) * 731 * simtime.Nanosecond)
	m.fetchSeq = cfg.Seed * 1021
	m.smmSeq = cfg.Seed * 2053
	m.meterEvent = m.events.Schedule(m.clock.Now()+m.cfg.MeterInterval, m.meterTick)
	m.bmcEvent = m.events.Schedule(m.clock.Now()+m.cfg.BMC.ControlPeriod, m.bmcTick)
	m.refreshNextEvent()
	return m
}

// Accessors used by the experiment layers.
func (m *Machine) Now() simtime.Duration     { return m.clock.Now() }
func (m *Machine) Core() *cpu.Core           { return m.core }
func (m *Machine) Hierarchy() *mem.Hierarchy { return m.hier }
func (m *Machine) Meter() *sensors.Meter     { return m.meter }
func (m *Machine) BMC() *bmc.BMC             { return m.ctrl }
func (m *Machine) Config() Config            { return m.cfg }
func (m *Machine) GatingLevel() int          { return m.gatingLevel }

// PowerWatts reports the node power computed at the most recent
// control or meter event — the BMC-visible instantaneous reading.
func (m *Machine) PowerWatts() float64 { return m.curPower }

// SetBusy marks the node as actively executing (or idle) for the power
// model when the caller drives Compute/Load/Store directly instead of
// going through RunWorkload — the gating-detection probes do this.
// RunWorkload manages the flag itself.
func (m *Machine) SetBusy(busy bool) { m.running = busy }

// CapFloorWatts estimates the lowest cap the platform can actually
// track: the busy power at the slowest P-state with the gating ladder
// fully escalated. Caps below this are accepted but overshoot, as the
// paper's 120 W rows do; the BMC advertises it via GetCapabilities.
func (m *Machine) CapFloorWatts() float64 {
	deepest := m.cfg.Ladder[len(m.cfg.Ladder)-1]
	hcfg := m.cfg.Hierarchy
	ways := func(v, full int) int {
		if v <= 0 {
			return full
		}
		return v
	}
	duty := deepest.DRAMGate.OnFraction
	if deepest.DRAMGate.Period == 0 {
		duty = 1
	}
	if deepest.DRAMDuty > 0 {
		duty = deepest.DRAMDuty
	}
	if scale := deepest.DRAMGate.LatencyScale; scale > 1 {
		duty *= 0.6 + 0.4/scale
	}
	itlbFrac := 1 - float64(ways(deepest.ITLBWays, hcfg.ITLB.Ways))/float64(hcfg.ITLB.Ways)
	dtlbFrac := 1 - float64(ways(deepest.DTLBWays, hcfg.DTLB.Ways))/float64(hcfg.DTLB.Ways)
	slow := m.cfg.PStates.Slowest()
	return m.cfg.Power.FloorWatts(slow.FreqMHz, slow.VoltageMV, power.NodeState{
		L3WaysGated:      hcfg.L3.Ways - ways(deepest.L3Ways, hcfg.L3.Ways),
		L2WaysGated:      hcfg.L2.Ways - ways(deepest.L2Ways, hcfg.L2.Ways),
		L1WaysGated:      2 * (hcfg.L1D.Ways - ways(deepest.L1Ways, hcfg.L1D.Ways)),
		TLBGatedFraction: (itlbFrac + dtlbFrac) / 2,
		DRAMDuty:         duty,
	})
}

// SetPolicy installs the capping policy (CapWatts <= 0 disables
// capping entirely, the paper's baseline configuration). The returned
// error is advisory — a cap below the platform floor yields
// bmc.ErrInfeasibleCap but is applied regardless, as the paper's
// 120 W rows require.
func (m *Machine) SetPolicy(capWatts float64) error {
	return m.ctrl.SetPolicy(bmc.Policy{Enabled: capWatts > 0, CapWatts: capWatts})
}

// Alloc reserves size bytes of simulated address space, page-aligned,
// and returns the base address. Data contents live in the workload's
// own Go slices; Alloc only lays out the simulated addresses.
func (m *Machine) Alloc(size int) uint64 {
	base := m.allocNext
	pages := uint64(size+4095) / 4096
	m.allocNext += (pages + 1) * 4096 // guard page between regions
	return base
}

// SetCodeFootprint declares how many 4 KiB pages of instruction
// working set the running workload has; the machine synthesizes
// instruction fetches over them.
func (m *Machine) SetCodeFootprint(pages int) {
	if pages < 1 {
		pages = 1
	}
	m.codePages = pages
}

// freq reports the current core frequency in MHz.
func (m *Machine) freq() int { return m.core.FreqMHz() }

// TraceOpKind labels one logical workload operation.
type TraceOpKind byte

// Trace operation kinds.
const (
	TraceCompute TraceOpKind = 'c'
	TraceLoad    TraceOpKind = 'l'
	TraceStore   TraceOpKind = 's'
)

// TraceOp is one observed workload operation.
type TraceOp struct {
	Kind   TraceOpKind
	Addr   uint64 // loads and stores
	Cycles int64  // compute
	Instrs uint64 // compute
}

// Compute executes instrs committed instructions taking cycles core
// cycles of pure execution (no memory operands beyond L1-resident
// state folded into the cycle count).
func (m *Machine) Compute(cycles int64, instrs uint64) {
	if cycles <= 0 {
		cycles = 1
	}
	if m.cfg.OpTrace != nil {
		m.cfg.OpTrace(TraceOp{Kind: TraceCompute, Cycles: cycles, Instrs: instrs})
	}
	m.drainPendingStall()
	m.advanceBusy(m.cyc.Cycles(cycles, m.freq()))
	m.core.InstructionsCommitted += instrs
	m.core.InstructionsExecuted += instrs
	m.fetchForInstrs(instrs)
	m.runDueEvents()
}

// Load performs one committed data read at addr.
func (m *Machine) Load(addr uint64) {
	if m.cfg.OpTrace != nil {
		m.cfg.OpTrace(TraceOp{Kind: TraceLoad, Addr: addr})
	}
	m.memop(addr, mem.Load)
}

// Store performs one committed data write at addr.
func (m *Machine) Store(addr uint64) {
	if m.cfg.OpTrace != nil {
		m.cfg.OpTrace(TraceOp{Kind: TraceStore, Addr: addr})
	}
	m.memop(addr, mem.Store)
}

func (m *Machine) memop(addr uint64, kind mem.AccessKind) {
	m.drainPendingStall()
	m.fetchForInstrs(1)

	freq := m.freq()
	r := m.hier.Access(m.clock.Now(), freq, addr, kind)
	if r.Level <= mem.LevelL3 {
		// On-chip hits: the out-of-order engine overlaps them with
		// useful work, so they count as busy (high-activity) time.
		m.advanceBusy(r.Latency)
	} else {
		m.advanceStall(r.Latency)
	}

	m.core.InstructionsCommitted++
	m.core.InstructionsExecuted++
	if kind == mem.Store {
		m.core.StoresExecuted++
	} else {
		m.core.LoadsExecuted++
	}

	// Speculative work scales with frequency: a faster front end runs
	// further ahead of a stalled retirement point.
	if freq != m.specFreq {
		m.specFreq = freq
		m.specInc = float64(freq) / float64(m.fastestMHz) / float64(m.cfg.SpecEvery)
	}
	m.specAcc += m.specInc
	if m.specAcc >= 1 {
		m.specAcc--
		specAddr := addr + m.specLineOff
		m.hier.Access(m.clock.Now(), freq, specAddr, mem.Load)
		m.core.InstructionsExecuted++
		m.core.LoadsExecuted++
	}
	m.runDueEvents()
}

// fetchForInstrs issues the synthesized instruction fetches implied by
// committing n instructions. Fetches that hit the L1I are free (the
// front end runs ahead of retirement); misses stall.
func (m *Machine) fetchForInstrs(n uint64) {
	m.ifetchDown -= int(n)
	if m.ifetchDown <= 0 {
		m.issueFetches()
	}
}

// issueFetches is the part of fetchForInstrs kept out of line so that
// its countdown inlines into every operation.
func (m *Machine) issueFetches() {
	for m.ifetchDown <= 0 {
		m.ifetchDown += m.cfg.IFetchEvery
		addr := m.nextFetchAddr()
		r := m.hier.Access(m.clock.Now(), m.freq(), addr, mem.IFetch)
		if r.Level != mem.LevelL1 {
			m.advanceStall(r.Latency)
		}
	}
}

// farCodePages models the long tail of rarely executed code — shared
// libraries, error paths, OS-visible helpers — that keeps a real
// process's baseline iTLB miss count small but non-zero (the paper's
// baselines run tens of thousands of iTLB misses over billions of
// instructions).
const farCodePages = 512

// nextFetchAddr walks the workload's code footprint: most fetches spin
// in a small hot loop, a steady trickle covers the full footprint
// (helpers, branches taken occasionally), and a rare tail reaches the
// far pages.
func (m *Machine) nextFetchAddr() uint64 {
	m.fetchSeq++
	seq := m.fetchSeq
	if seq%499 == 0 {
		h := seq * 0x9E3779B97F4A7C15
		page := (h >> 33) % farCodePages
		return codeRegionBase + uint64(4096*4096) + page*4096
	}
	const hot = 4 // pages in the hot loop, when the footprint has that many
	var page uint64
	switch {
	case m.codePages <= hot:
		page = seq % uint64(m.codePages)
	case seq%5 == 0:
		// Cold fetch: cycle the whole footprint.
		page = (seq / 5) % uint64(m.codePages)
	default:
		page = seq % hot
	}
	// Vary the line within the page so the L1I sees realistic traffic.
	line := (seq * 13) % 64
	return codeRegionBase + page*4096 + line*64
}

// drainPendingStall applies stall time posted by firmware events.
func (m *Machine) drainPendingStall() {
	if m.pendingStall > 0 {
		d := m.pendingStall
		m.pendingStall = 0
		m.advanceStall(d)
	}
}

func (m *Machine) advanceBusy(d simtime.Duration) {
	m.clock.Advance(d)
	m.core.AccountBusy(d)
	m.accBusy += d
	if m.clockDuty > 0 && m.clockDuty < 1 {
		// Clock modulation: for every duty-cycle's worth of progress
		// the clock is gated for the complementary fraction.
		m.advanceStall(simtime.Duration(float64(d) * (1 - m.clockDuty) / m.clockDuty))
	}
}

func (m *Machine) advanceStall(d simtime.Duration) {
	m.clock.Advance(d)
	m.core.AccountStall(d)
	m.accStall += d
}

// runDueEvents fires any periodic events the clock has passed.
func (m *Machine) runDueEvents() {
	if m.hasEvent && m.clock.Now() >= m.nextEvent {
		m.fireDueEvents()
	}
}

// fireDueEvents is the part of runDueEvents kept out of line so that
// its test inlines into every operation.
func (m *Machine) fireDueEvents() {
	m.events.RunUntil(m.clock.Now())
	m.refreshNextEvent()
}

func (m *Machine) refreshNextEvent() {
	m.nextEvent, m.hasEvent = m.events.PeekTime()
}

// AdvanceIdle advances simulated time with the core idle (deep
// C-state), still firing control and meter events. The experiment
// layer uses it between runs and the stride probe uses it to settle
// the controller.
func (m *Machine) AdvanceIdle(d simtime.Duration) {
	end := m.clock.Now() + d
	m.core.EnterCState(6)
	for {
		at, ok := m.events.PeekTime()
		if !ok || at > end {
			break
		}
		m.clock.AdvanceTo(at)
		m.events.RunUntil(at)
	}
	m.clock.AdvanceTo(end)
	m.refreshNextEvent()
	m.core.Wake()
}

// --- periodic events ---

// meterTick samples the wall meter and re-arms itself.
func (m *Machine) meterTick(now simtime.Duration) {
	m.updatePower(now)
	m.meter.Record(now, m.curPower)
	m.events.Rearm(m.meterEvent, now+m.cfg.MeterInterval)
}

// bmcTick runs one control period and re-arms itself.
func (m *Machine) bmcTick(now simtime.Duration) {
	m.updatePower(now)
	m.ctrl.Tick()
	if m.ctrl.Policy().Enabled {
		m.firmwareOverhead(now)
	}
	if m.cfg.ControlHook != nil {
		m.cfg.ControlHook(m)
	}
	m.events.Rearm(m.bmcEvent, now+m.cfg.BMC.ControlPeriod)
}

// updatePower recomputes the node power from activity since the last
// update.
func (m *Machine) updatePower(now simtime.Duration) {
	dt := now - m.lastPowerAt
	if dt <= 0 {
		return
	}
	window := m.accBusy + m.accStall
	if window > 0 {
		m.curActivity = float64(m.accBusy) / float64(window)
	} else if !m.running {
		m.curActivity = 0
	}
	bytes := m.hier.TakeDRAMBytes()
	m.curMemUtil = float64(bytes) / (dt.Seconds() * m.cfg.Hierarchy.PeakBytesPerSec)
	if m.curMemUtil > 1 {
		m.curMemUtil = 1
	}
	m.accBusy, m.accStall = 0, 0
	m.lastPowerAt = now

	active := 0
	if m.running && m.core.CState().Index == 0 {
		active = 1
	}
	g := m.hier.Gated()
	st := power.NodeState{
		FreqMHz:          m.freq(),
		VoltageMV:        m.core.PState().VoltageMV,
		ActiveCores:      active,
		Activity:         m.curActivity,
		MemUtil:          m.curMemUtil,
		L3WaysGated:      g.L3WaysGated,
		L2WaysGated:      g.L2WaysGated,
		L1WaysGated:      g.L1WaysGated,
		TLBGatedFraction: g.TLBGatedFraction,
		DRAMDuty:         m.dutyEquivalent(),
		ClockDuty:        m.clockDuty,
	}
	m.curPower = m.cfg.Power.NodeWatts(st)
}

// dutyEquivalent folds duty cycling and latency scaling into the power
// model's single DRAM-duty input: both reduce memory-interface power,
// duty cycling proportionally and down-clocking more weakly.
func (m *Machine) dutyEquivalent() float64 {
	gate := m.hier.DRAM().Gate()
	duty := gate.OnFraction
	if gate.LatencyScale > 1 {
		duty *= 0.6 + 0.4/gate.LatencyScale
	}
	return duty
}

// firmwareOverhead injects the SMM handler's footprint: a brief core
// stall plus instruction and data traffic in the firmware region.
// Under deep capping the handler runs just as often per wall second
// but vastly more often per unit of workload progress, which is how a
// fixed overhead turns into the TLB-miss amplification of Table II.
func (m *Machine) firmwareOverhead(now simtime.Duration) {
	s := m.cfg.SMM
	if s.FetchesPerTick <= 0 && s.LoadsPerTick <= 0 {
		return
	}
	for i := 0; i < s.FetchesPerTick; i++ {
		m.smmSeq++
		page := m.smmSeq % uint64(max(1, s.CodePages))
		line := (m.smmSeq * 7) % 64
		m.hier.Access(now, m.freq(), smmRegionBase+page*4096+line*64, mem.IFetch)
	}
	for i := 0; i < s.LoadsPerTick; i++ {
		m.smmSeq++
		page := m.smmSeq % uint64(max(1, s.DataPages))
		m.hier.Access(now, m.freq(), smmRegionBase+(64<<12)+page*4096+(m.smmSeq%64)*64, mem.Load)
	}
	m.pendingStall += s.StallPerTick
}

// CounterSnapshot implements counters.Source.
func (m *Machine) CounterSnapshot() counters.Snapshot {
	return counters.Snapshot{
		L1DMisses:             m.hier.L1D().Stats().Misses,
		L1IMisses:             m.hier.L1I().Stats().Misses,
		L2Misses:              m.hier.L2().Stats().Misses,
		L3Misses:              m.hier.L3().Stats().Misses,
		DTLBMisses:            m.hier.DTLB().Stats().Misses,
		ITLBMisses:            m.hier.ITLB().Stats().Misses,
		InstructionsCommitted: m.core.InstructionsCommitted,
		InstructionsIssued:    m.core.InstructionsExecuted,
		Loads:                 m.core.LoadsExecuted,
		Stores:                m.core.StoresExecuted,
		Cycles:                m.core.Cycles,
	}
}

var _ counters.Source = (*Machine)(nil)

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

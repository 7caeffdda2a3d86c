// Package machine assembles the simulated node: cores with DVFS,
// the memory hierarchy, the power model, the wall power meter, and the
// BMC with its capping policy — the complete platform of Section III
// of the paper. Workloads execute against a Machine through a small
// operation API (Compute/Load/Store), and the machine advances virtual
// time, fires periodic control events, and collects every metric the
// study reports.
package machine

import (
	"fmt"
	"math"

	"nodecap/internal/bmc"
	"nodecap/internal/counters"
	"nodecap/internal/cpu"
	"nodecap/internal/dram"
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

	// Cores is the socket width. The paper pins its applications to one
	// core, which is what Romley configures; wider nodes run one shard
	// of a parallel workload per core (package multicore) over private
	// L1/L2/TLBs and a shared L3 and DRAM channel. DVFS and the gating
	// ladder stay package-wide unless HighPriorityCores splits them.
	Cores int
	// HighPriorityCores, when in (0, Cores), splits the socket into a
	// latency-critical serving tier (cores [0, HighPriorityCores)) and
	// a batch tier (the rest) with independent DVFS — the SST-BF
	// deployment model. The BMC then escalates priority-aware: batch
	// P-state and batch private gating first, serving tier held at
	// ServingFloorPState until the cap is otherwise infeasible. Zero
	// (or Cores) keeps the uniform package-wide plant.
	HighPriorityCores int
	// ServingFloorPState is the slowest P-state index the serving tier
	// may be held at before the controller breaks the floor. Only
	// meaningful with a serving tier.
	ServingFloorPState int
}

// Romley returns the full configuration of the modelled S2R2 platform
// with two 2.7 GHz eight-core E5-2680 processors (the study pins its
// applications to a single core, which is what the machine executes).
func Romley() Config {
	return Config{
		Cores:           1,
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

// never is the time of an event that is not going to fire.
const never = simtime.Duration(math.MaxInt64)

// Machine is one simulated node. It embeds core 0's context, so on the
// paper's one-core node the machine itself is the operation API; on a
// wider node that is the core a plain Workload runs on while the rest
// stay parked.
type Machine struct {
	*CoreHandle

	cfg    Config
	cores  []*CoreHandle
	uncore *mem.Uncore
	events *simtime.EventQueue
	// The two periodic events, created once and re-armed from their own
	// callbacks so that a firing allocates nothing.
	meterEvent, bmcEvent *simtime.Event

	meter *sensors.Meter
	ctrl  *bmc.BMC

	gatingLevel int
	// batchGatingLevel is the extra ladder position applied to batch
	// cores' private structures only; a batch core's private level is
	// the deeper of the two. Always 0 without a serving tier.
	batchGatingLevel int
	running          bool

	lastPowerAt simtime.Duration
	curPower    float64
	curActivity [2]float64 // per tier; a uniform node is tier 0

	// Workload facilities.
	allocNext uint64
	codePages int

	smmSeq uint64
}

// New builds a machine from cfg; invalid static configuration panics.
func New(cfg Config) *Machine { return Recycle(cfg, nil) }

// Recycle is New over the large buffers of old, a machine that has
// finished its last run (nil: there is none). Every cache whose
// geometry is unchanged is built over old's zeroed slab and the meter
// over old's emptied sample buffer — 5.3 MB and up to a few hundred KB
// that a sweep would otherwise allocate per run; everything else is
// built from cfg alone, so the new machine runs bit for bit like
// New(cfg)'s. old must not be used again.
func Recycle(cfg Config, old *Machine) *Machine {
	if err := cfg.Power.Validate(); err != nil {
		panic(err)
	}
	if len(cfg.Ladder) == 0 {
		panic("machine: empty gating ladder")
	}
	if cfg.MeterInterval <= 0 {
		panic("machine: non-positive meter interval")
	}
	if cfg.Cores <= 0 {
		panic("machine: non-positive core count")
	}
	if cfg.HighPriorityCores < 0 || cfg.HighPriorityCores > cfg.Cores {
		panic(fmt.Sprintf("machine: %d high-priority cores outside [0, %d]",
			cfg.HighPriorityCores, cfg.Cores))
	}
	if cfg.IFetchEvery <= 0 {
		cfg.IFetchEvery = 12
	}
	if cfg.SpecEvery <= 0 {
		cfg.SpecEvery = 32
	}
	if old == nil {
		old = &Machine{meter: sensors.NewMeter(0)} // nothing to take
	}
	m := &Machine{
		cfg:       cfg,
		uncore:    mem.NewUncore(cfg.Hierarchy, old.uncore),
		events:    simtime.NewEventQueue(),
		meter:     sensors.NewMeter(cfg.MeterNoiseWatts),
		allocNext: dataRegionBase,
		codePages: 16,
	}
	m.meter.TakeBuffer(old.meter)
	for id := 0; id < cfg.Cores; id++ {
		var oldHier *mem.Hierarchy
		if id < len(old.cores) {
			oldHier = old.cores[id].hier
		}
		m.cores = append(m.cores, newCoreHandle(m, id, oldHier))
	}
	m.CoreHandle = m.cores[0]

	var pl bmc.Plant = (*plant)(m)
	if m.tiered() {
		pl = priorityPlant{(*plant)(m)}
	}
	if cfg.WrapPlant != nil {
		if wrapped := cfg.WrapPlant(pl); wrapped != nil {
			pl = wrapped
		}
	}
	m.ctrl = bmc.New(cfg.BMC, pl)
	// The node draws idle power from the instant it exists; events
	// will refine the estimate as soon as activity accumulates.
	m.curPower = cfg.Power.NodeWatts(power.NodeState{DRAMDuty: 1})
	m.smmSeq = cfg.Seed * 2053
	m.meterEvent = m.events.Schedule(m.Now()+m.cfg.MeterInterval, m.meterTick)
	m.bmcEvent = m.events.Schedule(m.Now()+m.cfg.BMC.ControlPeriod, m.bmcTick)
	m.refreshNextEvent()
	return m
}

// Accessors used by the experiment layers. Core and Hierarchy are
// core 0's, promoted from the embedded handle.
func (m *Machine) Meter() *sensors.Meter { return m.meter }
func (m *Machine) BMC() *bmc.BMC         { return m.ctrl }
func (m *Machine) Config() Config        { return m.cfg }
func (m *Machine) GatingLevel() int      { return m.gatingLevel }

// BatchGatingLevel reports the batch-only private-structure ladder
// position; always 0 without a serving tier.
func (m *Machine) BatchGatingLevel() int { return m.batchGatingLevel }

// Cores returns every core's context, indexed by core id.
func (m *Machine) Cores() []*CoreHandle { return m.cores }

// Now reports node time: the furthest any core's clock has got.
func (m *Machine) Now() simtime.Duration {
	now := m.clock.Now()
	for _, c := range m.cores[1:] {
		if c.clock.Now() > now {
			now = c.clock.Now()
		}
	}
	return now
}

// tiered reports whether the socket is split into a serving and a
// batch DVFS tier.
func (m *Machine) tiered() bool {
	return m.cfg.HighPriorityCores > 0 && m.cfg.HighPriorityCores < m.cfg.Cores
}

// tierOf reports core id's tier: 1 for the batch cores of a tiered
// socket, 0 for everything else.
func (m *Machine) tierOf(id int) int {
	if m.tiered() && id >= m.cfg.HighPriorityCores {
		return 1
	}
	return 0
}

// PowerWatts reports the node power computed at the most recent
// control or meter event — the BMC-visible instantaneous reading.
func (m *Machine) PowerWatts() float64 { return m.curPower }

// SetBusy marks the node as actively executing (or idle) for the power
// model when the caller drives Compute/Load/Store directly instead of
// going through RunWorkload — the gating-detection probes do this.
// RunWorkload manages the flag itself.
func (m *Machine) SetBusy(busy bool) { m.running = busy }

// CapFloorWatts estimates the lowest cap the platform can actually
// track: every core busy at the slowest P-state with the gating ladder
// fully escalated. Caps below this are accepted but overshoot, as the
// paper's 120 W rows do; the BMC advertises it via GetCapabilities.
func (m *Machine) CapFloorWatts() float64 {
	deepest := m.cfg.Ladder[len(m.cfg.Ladder)-1]
	g := deepest.Gated(m.cfg.Hierarchy)
	n := len(m.cores)
	slow := m.cfg.PStates.Slowest()
	return m.cfg.Power.FloorWatts(slow.FreqMHz, slow.VoltageMV, power.NodeState{
		ActiveCores:      n,
		L3WaysGated:      g.L3WaysGated,
		L2WaysGated:      n * g.L2WaysGated,
		L1WaysGated:      n * g.L1WaysGated,
		TLBGatedFraction: g.TLBGatedFraction,
		DRAMDuty:         dutyEquivalent(deepest.Gate()),
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
// own Go slices; Alloc only lays out the simulated addresses, which
// every core shares.
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

// fireDueEvents fires the periodic events every running core's clock
// has passed. It is the part of a core's runDueEvents kept out of line
// so that its test inlines into every operation.
func (m *Machine) fireDueEvents() {
	horizon := never
	for _, c := range m.cores {
		if !c.parked && c.clock.Now() < horizon {
			horizon = c.clock.Now()
		}
	}
	// With every core parked the run is over; what is still due waits
	// for whoever advances the node next.
	if horizon != never {
		m.events.RunUntil(horizon)
	}
	m.refreshNextEvent()
}

// refreshNextEvent re-arms every core's event test. A core already
// past the next event does not test for it again: the event fires when
// the last running core behind it crosses, or parks.
func (m *Machine) refreshNextEvent() {
	at, ok := m.events.PeekTime()
	if !ok {
		at = never
	}
	for _, c := range m.cores {
		c.nextEvent = at
		if c.clock.Now() >= at {
			c.nextEvent = never
		}
	}
}

// AdvanceIdle advances simulated time with the node idle (deep
// C-state), still firing control and meter events. The experiment
// layer uses it between runs and the stride probe uses it to settle
// the controller.
func (m *Machine) AdvanceIdle(d simtime.Duration) {
	end := m.Now() + d
	m.core.EnterCState(6)
	for {
		at, ok := m.events.PeekTime()
		if !ok || at > end {
			break
		}
		m.advanceTo(at)
		m.events.RunUntil(at)
	}
	m.advanceTo(end)
	m.refreshNextEvent()
	m.core.Wake()
}

// advanceTo brings every core's clock up to t.
func (m *Machine) advanceTo(t simtime.Duration) {
	for _, c := range m.cores {
		c.clock.AdvanceTo(t)
	}
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

// updatePower recomputes the node power from every core's activity
// since the last update. A uniform node is priced as one tier, a split
// socket as two.
func (m *Machine) updatePower(now simtime.Duration) {
	dt := now - m.lastPowerAt
	if dt <= 0 {
		return
	}
	m.lastPowerAt = now

	var busy, stall, idle [2]simtime.Duration
	var tiers [2]power.TierState
	for _, c := range m.cores {
		t := m.tierOf(c.id)
		busy[t] += c.accBusy
		stall[t] += c.accStall
		idle[t] += c.accIdle
		c.accBusy, c.accStall, c.accIdle = 0, 0, 0
		if m.running && c.core.CState().Index == 0 {
			tiers[t].ActiveCores++
		}
	}
	n := 1
	if m.tiered() {
		n = 2
	}
	for t := 0; t < n; t++ {
		c0 := busy[t] + stall[t]
		if c0 > 0 {
			m.curActivity[t] = float64(busy[t]) / float64(c0)
		} else if !m.running {
			m.curActivity[t] = 0
		}
		ps := m.cores[t*m.cfg.HighPriorityCores].core.PState() // the tier's first core
		tiers[t].FreqMHz, tiers[t].VoltageMV = ps.FreqMHz, ps.VoltageMV
		tiers[t].Activity = m.curActivity[t]
		// DutyCycle is the C0 fraction of the tier's time: cores asleep
		// between open-loop arrivals burn neither dynamic power nor
		// active leakage. A tier with no accounted time is taken as
		// fully in C0.
		tiers[t].DutyCycle = 1
		if c0+idle[t] > 0 {
			tiers[t].DutyCycle = float64(c0) / float64(c0+idle[t])
		}
	}
	memUtil := float64(m.uncore.TakeDRAMBytes()) /
		(dt.Seconds() * m.cfg.Hierarchy.PeakBytesPerSec * float64(len(m.cores)))
	if memUtil > 1 {
		memUtil = 1
	}
	g := m.uncore.Gated()
	m.curPower = m.cfg.Power.NodeWattsTiered(power.NodeState{
		MemUtil:          memUtil,
		L3WaysGated:      g.L3WaysGated,
		L2WaysGated:      g.L2WaysGated,
		L1WaysGated:      g.L1WaysGated,
		TLBGatedFraction: g.TLBGatedFraction,
		DRAMDuty:         dutyEquivalent(m.hier.DRAM().Gate()),
		ClockDuty:        m.clockDuty, // package-wide: core 0's copy is every core's
	}, tiers[:n])
}

// dutyEquivalent folds duty cycling and latency scaling into the power
// model's single DRAM-duty input: both reduce memory-interface power,
// duty cycling proportionally and down-clocking more weakly.
func dutyEquivalent(gate dram.GateConfig) float64 {
	duty := gate.OnFraction
	if gate.LatencyScale > 1 {
		duty *= 0.6 + 0.4/gate.LatencyScale
	}
	return duty
}

// firmwareOverhead injects the SMM handler's footprint: instruction
// and data traffic in the firmware region on core 0, where the handler
// runs, and a brief stall on every running core, which all rendezvous
// in SMM for it. Under deep capping the handler runs just as often per
// wall second but vastly more often per unit of workload progress,
// which is how a fixed overhead turns into the TLB-miss amplification
// of Table II. Nothing waits for the handler's own loads (the cores pay
// StallPerTick instead), hence mem.Spec.
func (m *Machine) firmwareOverhead(now simtime.Duration) {
	s := m.cfg.SMM
	if s.FetchesPerTick <= 0 && s.LoadsPerTick <= 0 {
		return
	}
	freq := m.core.FreqMHz()
	for i := 0; i < s.FetchesPerTick; i++ {
		m.smmSeq++
		page := m.smmSeq % uint64(max(1, s.CodePages))
		line := (m.smmSeq * 7) % 64
		m.hier.Access(now, freq, smmRegionBase+page*4096+line*64, mem.IFetch)
	}
	for i := 0; i < s.LoadsPerTick; i++ {
		m.smmSeq++
		page := m.smmSeq % uint64(max(1, s.DataPages))
		m.hier.Access(now, freq, smmRegionBase+(64<<12)+page*4096+(m.smmSeq%64)*64, mem.Spec)
	}
	for _, c := range m.cores {
		c.postStall(s.StallPerTick)
	}
}

// CounterSnapshot implements counters.Source: private counters summed
// over the cores, the shared L3's once.
func (m *Machine) CounterSnapshot() counters.Snapshot {
	s := counters.Snapshot{L3Misses: m.hier.L3().Stats().Misses}
	for _, c := range m.cores {
		s.L1DMisses += c.hier.L1D().Stats().Misses
		s.L1IMisses += c.hier.L1I().Stats().Misses
		s.L2Misses += c.hier.L2().Stats().Misses
		s.DTLBMisses += c.hier.DTLB().Stats().Misses
		s.ITLBMisses += c.hier.ITLB().Stats().Misses
		s.InstructionsCommitted += c.core.InstructionsCommitted
		s.InstructionsIssued += c.core.InstructionsExecuted
		s.Loads += c.core.LoadsExecuted
		s.Stores += c.core.StoresExecuted
		s.Cycles += c.core.Cycles
	}
	return s
}

var _ counters.Source = (*Machine)(nil)

// Package bmc models the Baseboard Management Controller of Section II
// of the paper: the out-of-band firmware that monitors node power and
// dynamically regulates it to honour a cap set by Intel Data Center
// Manager.
//
// The control strategy reproduces what the paper describes and infers:
//
//   - The primary actuator is the P-state. When consumption exceeds
//     the cap the BMC steps the CPUs to slower P-states; when it falls
//     comfortably below, it steps back up. A cap that falls between
//     the power levels of two adjacent P-states makes the controller
//     dither between them, which is why Table II reports non-grid
//     average frequencies such as 2168 MHz.
//   - When consumption still exceeds the cap at the slowest P-state
//     (caps of roughly 130 W and below on this platform), the BMC
//     escalates through a gating ladder — cache way gating, TLB entry
//     gating, memory-controller duty cycling — the sub-DVFS techniques
//     the paper's counter data reveals. These buy only a few watts at
//     a large performance cost.
//
// The controller is additionally defensive about its own instrument:
// real capping firmware must stay safe when the power sensor lies. A
// reading can be missing (dropout), outside the plausible envelope,
// NaN/Inf, or frozen (stuck-at). After FaultToleranceTicks consecutive
// untrusted readings while a policy is enabled the BMC enters
// fail-safe mode — it clamps the plant at a safe P-state floor and
// refuses to step *up* on data it cannot trust — and leaves only after
// RecoveryTicks consecutive sane readings.
package bmc

import (
	"errors"
	"fmt"

	"nodecap/internal/simtime"
	"nodecap/internal/telemetry"
)

// Plant is the machine surface the BMC actuates. The machine package
// implements it; tests substitute scripted plants.
type Plant interface {
	// PowerWatts reports the node's current power draw as seen by the
	// BMC's onboard sensor.
	PowerWatts() float64
	// PStateIndex and NumPStates describe the DVFS position; higher
	// index is slower.
	PStateIndex() int
	NumPStates() int
	// SetPState requests a DVFS transition (clamped by the plant).
	SetPState(i int)
	// GatingLevel and MaxGatingLevel describe the sub-DVFS ladder
	// position; 0 is ungated.
	GatingLevel() int
	MaxGatingLevel() int
	// SetGatingLevel reconfigures the memory hierarchy to ladder
	// level l (clamped by the plant).
	SetGatingLevel(l int)
}

// PowerSampler is an optional Plant extension whose sensor can fail to
// deliver a sample at all. When the plant implements it the controller
// reads through PowerSample and treats ok=false as a dropout; plants
// without it are assumed to always deliver.
type PowerSampler interface {
	PowerSample() (watts float64, ok bool)
}

// FloorReporter is an optional Plant extension that reports the
// platform's minimum achievable power (full DVFS + gating escalation).
// A reported floor ≤ 0 means unknown. The BMC uses it only to flag
// infeasible caps — the policy is still applied, matching the paper's
// 120 W rows where the node simply pins at its ~123-125 W floor.
type FloorReporter interface {
	CapFloorWatts() float64
}

// ErrInfeasibleCap marks a SetPolicy whose cap lies below the platform
// floor. The policy IS applied; the error is advisory.
var ErrInfeasibleCap = errors.New("cap below platform floor")

// Policy is a power-capping policy, as pushed by DCM over IPMI.
type Policy struct {
	Enabled  bool
	CapWatts float64
}

// Config tunes the control loop.
type Config struct {
	// ControlPeriod is the interval between control decisions.
	ControlPeriod simtime.Duration
	// GuardBandWatts is how far below the cap the controller aims;
	// real firmware undershoots so transients do not breach the cap.
	GuardBandWatts float64
	// HysteresisWatts is the undershoot beyond the target required
	// before the controller raises the P-state, preventing limit
	// cycles from consuming the whole run in P-state transitions.
	HysteresisWatts float64
	// GateRelaxHysteresisWatts is the (much smaller) undershoot that
	// relaxes one gating-ladder level. Firmware prefers DVFS-only
	// operation — gating costs enormous performance per watt — so it
	// is undone eagerly. This also differentiates a barely-reachable
	// cap (hovering in the shallow ladder) from an unreachable one
	// (pinned at the floor).
	GateRelaxHysteresisWatts float64
	// Smoothing is the EWMA coefficient applied to power readings
	// (weight of the newest sample), in (0, 1].
	Smoothing float64
	// StepWattsPerPState scales proportional descent: when consumption
	// exceeds the target by several steps' worth the controller drops
	// several P-states in one tick, limiting EWMA-lag overshoot into
	// the gating ladder.
	StepWattsPerPState float64

	// MinPlausibleWatts / MaxPlausibleWatts bound the sensor's
	// plausible envelope; a reading outside it is untrusted. Both zero
	// disables the range check (NaN/Inf and negative readings are
	// always untrusted).
	MinPlausibleWatts float64
	MaxPlausibleWatts float64
	// StuckSensorTicks flags the sensor as untrusted after that many
	// consecutive *identical* delivered readings. Zero disables stuck
	// detection — it assumes a naturally-noisy sensor, and a simulated
	// plant in steady state reports exactly constant power.
	StuckSensorTicks int
	// FaultToleranceTicks (K) is how many consecutive untrusted
	// control periods are tolerated before entering fail-safe mode.
	// Zero disables fail-safe entirely (untrusted readings are still
	// counted and never actuated on).
	FaultToleranceTicks int
	// RecoveryTicks (M) is how many consecutive sane readings are
	// required to leave fail-safe mode; values below 1 behave as 1.
	RecoveryTicks int
	// FailSafePState is the P-state floor held in fail-safe mode. ≤ 0
	// or out of range means the slowest P-state.
	FailSafePState int
}

// DefaultConfig returns the tuning used throughout the study.
// The control period is expressed in simulated time and is much
// shorter than real Node Manager's because the simulated runs are
// scaled-down; the ratio of control period to run length is what
// matters for convergence and dithering. Fail-safe is disabled by
// default — the study's plants have trustworthy sensors.
func DefaultConfig() Config {
	return Config{
		ControlPeriod:            100 * simtime.Microsecond,
		GuardBandWatts:           0.5,
		HysteresisWatts:          2.0,
		GateRelaxHysteresisWatts: 0.3,
		Smoothing:                0.6,
		StepWattsPerPState:       2.0,
	}
}

// FailSafeConfig returns DefaultConfig hardened for a fallible sensor:
// a plausibility envelope generously bracketing the platform
// (idle ~101 W, busy ~157 W), a 5-tick fault watchdog and a 10-tick
// recovery requirement. Stuck-at detection stays opt-in because the
// simulated sensor is exactly constant in steady state.
func FailSafeConfig() Config {
	c := DefaultConfig()
	c.MinPlausibleWatts = 50
	c.MaxPlausibleWatts = 400
	c.FaultToleranceTicks = 5
	c.RecoveryTicks = 10
	return c
}

// Validate reports nonsensical tunings.
func (c Config) Validate() error {
	if c.ControlPeriod <= 0 {
		return fmt.Errorf("bmc: non-positive control period")
	}
	if c.Smoothing <= 0 || c.Smoothing > 1 {
		return fmt.Errorf("bmc: smoothing %v outside (0,1]", c.Smoothing)
	}
	if c.GuardBandWatts < 0 || c.HysteresisWatts < 0 || c.GateRelaxHysteresisWatts < 0 {
		return fmt.Errorf("bmc: negative guard band or hysteresis")
	}
	if c.MinPlausibleWatts < 0 || c.MaxPlausibleWatts < 0 {
		return fmt.Errorf("bmc: negative plausibility bound")
	}
	if c.MaxPlausibleWatts > 0 && c.MinPlausibleWatts > c.MaxPlausibleWatts {
		return fmt.Errorf("bmc: plausibility range [%v, %v] inverted",
			c.MinPlausibleWatts, c.MaxPlausibleWatts)
	}
	if c.StuckSensorTicks < 0 || c.FaultToleranceTicks < 0 || c.RecoveryTicks < 0 {
		return fmt.Errorf("bmc: negative fault-tolerance tick count")
	}
	return nil
}

// Stats counts controller activity.
type Stats struct {
	Ticks        uint64
	StepsDown    uint64 // P-state slow-downs
	StepsUp      uint64
	GateEscalate uint64
	GateRelax    uint64
	OverCapTicks uint64 // ticks where smoothed power exceeded the cap
	AtFloorTicks uint64 // ticks fully escalated yet still over cap

	// Priority-plant activity (zero on uniform plants).
	BatchSteals uint64 // actuations that took power from the batch tier only
	FloorHolds  uint64 // escalations absorbed elsewhere with serving held at its floor
	FloorBreaks uint64 // serving-tier steps below the configured floor

	SensorFaults    uint64 // untrusted readings (dropout/range/NaN/stuck)
	FailSafeEntries uint64 // transitions into fail-safe mode
	FailSafeTicks   uint64 // ticks spent in fail-safe mode
}

// Add accumulates o into s (fleet totals over per-node counters).
func (s *Stats) Add(o *Stats) {
	s.Ticks += o.Ticks
	s.StepsDown += o.StepsDown
	s.StepsUp += o.StepsUp
	s.GateEscalate += o.GateEscalate
	s.GateRelax += o.GateRelax
	s.OverCapTicks += o.OverCapTicks
	s.AtFloorTicks += o.AtFloorTicks
	s.BatchSteals += o.BatchSteals
	s.FloorHolds += o.FloorHolds
	s.FloorBreaks += o.FloorBreaks
	s.SensorFaults += o.SensorFaults
	s.FailSafeEntries += o.FailSafeEntries
	s.FailSafeTicks += o.FailSafeTicks
}

// OverCapFraction reports the fraction of control ticks whose smoothed
// power exceeded the cap — a controller-quality metric the ablation
// benches compare.
func (s Stats) OverCapFraction() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return float64(s.OverCapTicks) / float64(s.Ticks)
}

// Health is the defensive-controller status a BMC reports out-of-band
// (surfaced over IPMI to DCM).
type Health struct {
	// FailSafe is true while the controller distrusts its sensor and
	// holds the fail-safe P-state floor.
	FailSafe bool
	// SensorFaults counts untrusted readings over the BMC's lifetime.
	SensorFaults uint64
	// InfeasibleCap is true when the active policy's cap lies below
	// the platform floor (the node pins at the floor, over budget).
	InfeasibleCap bool
}

// BMC is the controller instance for one node: the kernel.go law
// adapted to a Plant. It reads the sensor, runs one period of Run,
// asks the plant for the one move Run decided and mirrors what
// happened into the fleet counters and the decision trace.
type BMC struct {
	cfg    Config
	env    Envelope
	plant  Plant
	sensor PowerSampler  // nil when the plant always delivers a sample
	tiers  PriorityPlant // nil on a uniform (fair-share) plant
	policy Policy
	st     State
	stats  Stats

	// Telemetry sinks (SetTelemetry); nil-safe, zero-alloc when wired.
	trace           *telemetry.Trace
	traceNode       string
	mSensorFaults   *telemetry.Counter
	mFailSafeEnters *telemetry.Counter
	mFailSafeExits  *telemetry.Counter
	mBatchSteals    *telemetry.Counter
	mFloorHolds     *telemetry.Counter
	mFloorBreaks    *telemetry.Counter
}

// New builds a BMC for plant, resolving the plant's envelope once;
// panics on invalid static config.
func New(cfg Config, plant Plant) *BMC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var floor float64
	if fr, ok := plant.(FloorReporter); ok {
		floor = fr.CapFloorWatts()
	}
	b := &BMC{cfg: cfg, plant: plant,
		env: Resolve(cfg, plant.NumPStates(), plant.MaxGatingLevel(), floor)}
	b.sensor, _ = plant.(PowerSampler)
	b.tiers, _ = plant.(PriorityPlant)
	return b
}

// Config returns the controller tuning.
func (b *BMC) Config() Config { return b.cfg }

// SetTelemetry wires fleet metrics and the decision trace into the
// controller; node labels this BMC's trace events. Either sink may be
// nil. Counters are shared fleet-wide (same registry, same names), so
// per-node fault history stays in Stats while the registry aggregates.
// The instrumented Tick remains allocation-free.
func (b *BMC) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Trace, node string) {
	b.trace = tr
	b.traceNode = node
	b.mSensorFaults = reg.Counter("bmc_sensor_faults_total")
	b.mFailSafeEnters = reg.Counter("bmc_failsafe_entries_total")
	b.mFailSafeExits = reg.Counter("bmc_failsafe_exits_total")
	b.mBatchSteals = reg.Counter("bmc_batch_steals_total")
	b.mFloorHolds = reg.Counter("bmc_floor_holds_total")
	b.mFloorBreaks = reg.Counter("bmc_floor_breaks_total")
}

// Policy returns the active policy.
func (b *BMC) Policy() Policy { return b.policy }

// SetPolicy installs a capping policy (see Install for the state
// machine). Disabling the policy restores full speed and removes all
// gating, as deactivating a DCM policy does. The returned error is
// advisory: a cap below the platform floor (when the plant reports
// one) yields ErrInfeasibleCap but the policy is applied regardless.
func (b *BMC) SetPolicy(p Policy) error {
	repush := p == b.policy
	ev := Install(&b.env, &b.st, b.policy, p)
	b.policy = p
	b.mirror(ev)
	if ev&Restore != 0 {
		b.plant.SetGatingLevel(0)
		if b.tiers != nil {
			b.tiers.SetBatchGatingLevel(0)
		}
		b.plant.SetPState(0)
	}
	switch {
	case !b.st.Infeasible:
		return nil
	case repush:
		return fmt.Errorf("bmc: %w: %.1f W (policy already in force; node pinned at the floor)",
			ErrInfeasibleCap, p.CapWatts)
	default:
		return fmt.Errorf("bmc: %w: %.1f W < %.1f W floor (policy applied; node will pin at the floor)",
			ErrInfeasibleCap, p.CapWatts, b.env.FloorWatts)
	}
}

// Stats returns a snapshot of controller activity.
func (b *BMC) Stats() Stats { return b.stats }

// ResetStats zeroes the activity counters.
func (b *BMC) ResetStats() { b.stats = Stats{} }

// SmoothedWatts reports the EWMA-filtered power estimate the
// controller is acting on.
func (b *BMC) SmoothedWatts() float64 { return b.st.Smoothed }

// FailSafe reports whether the controller is holding its fail-safe
// floor because it distrusts the power sensor.
func (b *BMC) FailSafe() bool { return b.st.FailSafe }

// Health returns the defensive-controller status.
func (b *BMC) Health() Health { return b.st.Health(&b.stats) }

// mirror surfaces the law's transitions in the fleet counters and the
// decision trace.
func (b *BMC) mirror(ev Events) {
	if ev&SensorFault != 0 {
		b.mSensorFaults.Inc()
	}
	if ev&EnteredFailSafe != 0 {
		b.mFailSafeEnters.Inc()
		b.trace.Append(telemetry.Event{Node: b.traceNode, Kind: telemetry.EvFailSafeEnter})
	}
	if ev&LeftFailSafe != 0 {
		b.mFailSafeExits.Inc()
		b.trace.Append(telemetry.Event{Node: b.traceNode, Kind: telemetry.EvFailSafeExit})
	}
}

// Tick runs one control decision. The machine calls it every
// ControlPeriod of simulated time.
func (b *BMC) Tick() {
	b.stats.Ticks++
	if !b.policy.Enabled {
		return
	}
	// Read through PowerSample when the sensor can drop out.
	w, delivered := 0.0, true
	if b.sensor != nil {
		w, delivered = b.sensor.PowerSample()
	} else {
		w = b.plant.PowerWatts()
	}
	at := Pos{PState: int32(b.plant.PStateIndex()), Gating: int32(b.plant.GatingLevel())}
	src := Source{Watts: w, Delivered: delivered}
	to, ev, _ := Run(&b.cfg, &b.env, b.policy.CapWatts, &b.st, &b.stats, at, &src, 1, b.tiers != nil)
	// Cap best effort: request only the move the law decided. What the
	// plant actually applied is read back at the next tick.
	if to.PState != at.PState {
		b.plant.SetPState(int(to.PState))
	}
	if to.Gating != at.Gating {
		b.plant.SetGatingLevel(int(to.Gating))
	}
	if ev == 0 {
		return
	}
	b.mirror(ev)
	switch {
	case ev&ClampTiers != 0:
		b.clampTierFailSafe()
	case ev&ActTiers != 0:
		b.tickPriority()
	}
}

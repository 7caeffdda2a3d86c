// Package power models node-level power consumption for the simulated
// platform: CMOS dynamic power (C·f·V², Section II-B of the paper),
// active-core leakage, uncore/L3 clock power, DRAM activity power, and
// the small savings available from gating architectural structures.
//
// The model is calibrated against the paper's measurements:
//
//	idle node                 100–103 W
//	one busy core, no cap     153–157 W  (Table I)
//	one busy core at 1.2 GHz  ~127–131 W (Table II caps 130/135)
//	full gating floor         ~123–125 W (Table II caps 120/125 —
//	                          the platform cannot honour 120 W)
package power

import "fmt"

// Params holds the calibration constants of the node power model.
// DefaultParams returns the values tuned for the paper's platform; all
// fields are exported so ablation studies can perturb them.
type Params struct {
	// IdleWatts is the whole-node power with every core in a deep
	// C-state: fans, VRs, chipset, DRAM background, leakage.
	IdleWatts float64

	// CoreDynamicWatts is the switching power of one fully active core
	// at the reference operating point (RefFreqMHz, RefVoltageMV).
	// Scaled by f·V² for other operating points.
	CoreDynamicWatts float64
	RefFreqMHz       int
	RefVoltageMV     int

	// StallDynFraction is the fraction of core dynamic power still
	// burned while the core is stalled on memory (clocks keep toggling,
	// the OoO engine keeps replaying). Activity interpolates between
	// this floor and 1.
	StallDynFraction float64

	// CoreActiveLeakWatts is the extra leakage of a core held in C0
	// relative to the deep-idle baseline folded into IdleWatts.
	CoreActiveLeakWatts float64

	// UncoreWatts is the ring/L3/home-agent clock power with any core
	// active, at the reference frequency. The uncore clock tracks core
	// frequency only partially: scaled by
	// UncoreFloorFraction + (1-UncoreFloorFraction)·f/fRef.
	UncoreWatts         float64
	UncoreFloorFraction float64

	// DRAMActiveWatts is the memory power at 100% bandwidth
	// utilization, scaled linearly with utilization.
	DRAMActiveWatts float64

	// Gating savings. These are deliberately small: the paper's
	// central low-cap finding is that sub-DVFS techniques buy only a
	// few watts at enormous performance cost.
	L3WayLeakWatts    float64 // per gated L3 way
	L2WayLeakWatts    float64 // per gated L2 way
	L1WayLeakWatts    float64 // per gated L1 way (per L1 cache)
	TLBGateWatts      float64 // at fully gated TLBs, scaled by gated fraction
	DRAMDutySaveWatts float64 // at duty→0, scaled by (1-duty)

	// ClockModFloorFraction is the dynamic power left while the core
	// clock is modulated off (ACPI T-states): gating the clock stops
	// almost all switching, unlike a memory stall where the pipeline
	// keeps toggling.
	ClockModFloorFraction float64
}

// DefaultParams returns the calibrated model for the S2R2/E5-2680
// platform of the paper.
func DefaultParams() Params {
	return Params{
		IdleWatts:             101.0,
		CoreDynamicWatts:      26.0,
		RefFreqMHz:            2700,
		RefVoltageMV:          1100,
		StallDynFraction:      0.80,
		CoreActiveLeakWatts:   10.0,
		UncoreWatts:           13.0,
		UncoreFloorFraction:   0.55,
		DRAMActiveWatts:       12.0,
		L3WayLeakWatts:        0.05,
		L2WayLeakWatts:        0.06,
		L1WayLeakWatts:        0.03,
		TLBGateWatts:          0.10,
		DRAMDutySaveWatts:     1.20,
		ClockModFloorFraction: 0.10,
	}
}

// Validate reports obviously broken calibrations.
func (p Params) Validate() error {
	if p.IdleWatts <= 0 || p.CoreDynamicWatts < 0 || p.RefFreqMHz <= 0 || p.RefVoltageMV <= 0 {
		return fmt.Errorf("power: non-positive base parameters")
	}
	if p.StallDynFraction < 0 || p.StallDynFraction > 1 {
		return fmt.Errorf("power: StallDynFraction %v outside [0,1]", p.StallDynFraction)
	}
	if p.UncoreFloorFraction < 0 || p.UncoreFloorFraction > 1 {
		return fmt.Errorf("power: UncoreFloorFraction %v outside [0,1]", p.UncoreFloorFraction)
	}
	return nil
}

// DVFSFactor is the dynamic-power scaling between the reference point
// and (freqMHz, voltageMV): the f·V² law of Section II-B.
func (p Params) DVFSFactor(freqMHz, voltageMV int) float64 {
	fr := float64(freqMHz) / float64(p.RefFreqMHz)
	vr := float64(voltageMV) / float64(p.RefVoltageMV)
	return fr * vr * vr
}

// NodeState captures everything the power model needs about the
// machine at one instant.
type NodeState struct {
	FreqMHz   int
	VoltageMV int
	// ActiveCores is the number of cores in C0.
	ActiveCores int
	// Activity is the busy (non-memory-stalled) fraction of the
	// active cores' time, in [0,1].
	Activity float64
	// MemUtil is DRAM bandwidth utilization in [0,1].
	MemUtil float64
	// Gated structure counts.
	L3WaysGated int
	L2WaysGated int
	L1WaysGated int // summed over L1I and L1D
	// TLBGatedFraction is the powered-down fraction of TLB capacity.
	TLBGatedFraction float64
	// DRAMDuty is the memory-controller duty cycle in (0,1].
	DRAMDuty float64
	// ClockDuty is the core clock-modulation (T-state) duty cycle in
	// (0,1]; 1 (or 0, the zero value) means unmodulated.
	ClockDuty float64
}

// Breakdown is the per-component decomposition of node power.
type Breakdown struct {
	Idle        float64
	CoreDynamic float64
	CoreLeak    float64
	Uncore      float64
	DRAM        float64
	GateSavings float64 // reported positive; subtracted from the total
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.Idle + b.CoreDynamic + b.CoreLeak + b.Uncore + b.DRAM - b.GateSavings
}

// TierState describes one DVFS tier of a mixed-frequency node: a group
// of cores sharing an operating point (the SST-BF deployment model,
// where latency-critical cores run a different P-state than batch
// cores on the same socket).
type TierState struct {
	FreqMHz     int
	VoltageMV   int
	ActiveCores int
	// Activity is the busy fraction of this tier's active cores' C0
	// time (busy vs memory-stalled).
	Activity float64
	// DutyCycle is the fraction of wall time this tier's cores spent in
	// C0 at all; the rest was true idle (parked between open-loop
	// request arrivals), which burns neither dynamic power nor active
	// leakage. Zero means 1 (always in C0).
	DutyCycle float64
}

// Breakdown evaluates the model for state s: a node whose cores all
// share s's operating point is one tier.
func (p Params) Breakdown(s NodeState) Breakdown {
	tier := [1]TierState{{FreqMHz: s.FreqMHz, VoltageMV: s.VoltageMV,
		ActiveCores: s.ActiveCores, Activity: s.Activity}}
	return p.breakdown(s, tier[:])
}

// breakdown is the one pricing function. Core dynamic power and active
// leakage are summed per tier; the uncore clock tracks the fastest
// tier (the ring runs at the highest core clock); DRAM and gating
// savings come from s, whose FreqMHz/VoltageMV/ActiveCores/Activity
// fields are not read. A node with no core in C0 draws IdleWatts.
func (p Params) breakdown(s NodeState, tiers []TierState) Breakdown {
	b := Breakdown{Idle: p.IdleWatts}
	fastest := 0
	anyActive := false
	for _, t := range tiers {
		if t.ActiveCores <= 0 {
			continue
		}
		anyActive = true
		if t.FreqMHz > fastest {
			fastest = t.FreqMHz
		}
		act := clamp01(t.Activity)
		duty := t.DutyCycle
		if duty <= 0 || duty > 1 {
			duty = 1
		}
		dvfs := p.DVFSFactor(t.FreqMHz, t.VoltageMV)
		dyn := p.CoreDynamicWatts * dvfs *
			(p.StallDynFraction + (1-p.StallDynFraction)*act) * float64(t.ActiveCores) * duty
		if s.ClockDuty > 0 && s.ClockDuty < 1 {
			dyn *= s.ClockDuty + (1-s.ClockDuty)*p.ClockModFloorFraction
		}
		b.CoreDynamic += dyn
		b.CoreLeak += p.CoreActiveLeakWatts * float64(t.ActiveCores) * duty
	}
	if !anyActive {
		return b
	}
	fr := float64(fastest) / float64(p.RefFreqMHz)
	b.Uncore = p.UncoreWatts * (p.UncoreFloorFraction + (1-p.UncoreFloorFraction)*fr)
	b.DRAM = p.DRAMActiveWatts * clamp01(s.MemUtil)

	duty := s.DRAMDuty
	if duty <= 0 || duty > 1 {
		duty = 1
	}
	b.GateSavings = p.L3WayLeakWatts*float64(s.L3WaysGated) +
		p.L2WayLeakWatts*float64(s.L2WaysGated) +
		p.L1WayLeakWatts*float64(s.L1WaysGated) +
		p.TLBGateWatts*clamp01(s.TLBGatedFraction) +
		p.DRAMDutySaveWatts*(1-duty)
	return b
}

// NodeWatts evaluates the total node power for state s.
func (p Params) NodeWatts(s NodeState) float64 {
	return p.Breakdown(s).Total()
}

// NodeWattsTiered evaluates node power when cores are split across
// DVFS tiers; with no tiers it is NodeWatts(s).
func (p Params) NodeWattsTiered(s NodeState, tiers []TierState) float64 {
	if len(tiers) == 0 {
		return p.NodeWatts(s)
	}
	return p.breakdown(s, tiers).Total()
}

// FloorWatts reports the minimum busy power reachable with every
// mechanism engaged: slowest P-state, collapsed activity, all
// structures gated. The BMC uses it to recognize unreachable caps
// (the paper's 120 W rows, where measured power exceeds the cap).
func (p Params) FloorWatts(slowestFreqMHz, slowestVoltageMV int, maxGate NodeState) float64 {
	s := maxGate
	s.FreqMHz = slowestFreqMHz
	s.VoltageMV = slowestVoltageMV
	if s.ActiveCores < 1 {
		s.ActiveCores = 1
	}
	s.Activity = 0
	s.MemUtil = 0
	return p.NodeWatts(s)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func busyState(freq, volt int, act, mem float64) NodeState {
	return NodeState{
		FreqMHz: freq, VoltageMV: volt,
		ActiveCores: 1, Activity: act, MemUtil: mem, DRAMDuty: 1,
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	p := DefaultParams()
	p.IdleWatts = -1
	if err := p.Validate(); err == nil {
		t.Error("negative idle accepted")
	}
	p = DefaultParams()
	p.StallDynFraction = 1.5
	if err := p.Validate(); err == nil {
		t.Error("StallDynFraction > 1 accepted")
	}
	p = DefaultParams()
	p.UncoreFloorFraction = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative UncoreFloorFraction accepted")
	}
}

func TestDVFSFactor(t *testing.T) {
	p := DefaultParams()
	if got := p.DVFSFactor(2700, 1100); got != 1.0 {
		t.Errorf("reference factor = %v", got)
	}
	// 1200 MHz at 800 mV: (1200/2700)*(800/1100)^2 ~= 0.2351
	got := p.DVFSFactor(1200, 800)
	if got < 0.234 || got > 0.236 {
		t.Errorf("min-P-state factor = %v, want ~0.235", got)
	}
}

// TestCalibrationIdle checks the paper's idle band of 100-103 W.
func TestCalibrationIdle(t *testing.T) {
	p := DefaultParams()
	w := p.NodeWatts(NodeState{FreqMHz: 1200, VoltageMV: 800, ActiveCores: 0, DRAMDuty: 1})
	if w < 100 || w > 103 {
		t.Errorf("idle = %.1f W, want 100-103 (paper Section III)", w)
	}
}

// TestCalibrationBusyUncapped checks the Table I band of 153-157 W for
// one busy core at the top operating point.
func TestCalibrationBusyUncapped(t *testing.T) {
	p := DefaultParams()
	// Compute-leaning workload (Stereo Matching): high activity,
	// modest memory traffic -> ~153 W.
	stereo := p.NodeWatts(busyState(2700, 1100, 0.95, 0.25))
	if stereo < 151 || stereo > 155 {
		t.Errorf("stereo-like busy = %.1f W, want ~153", stereo)
	}
	// Memory-streaming workload (SIRE/RSM): lower activity, high
	// bandwidth -> ~157 W.
	sire := p.NodeWatts(busyState(2700, 1100, 0.75, 0.65))
	if sire < 154 || sire > 159 {
		t.Errorf("SIRE-like busy = %.1f W, want ~157", sire)
	}
}

// TestCalibrationMinPState checks the ~127-131 W band at 1.2 GHz
// (Table II caps 130/135, where frequency pins at 1200-1285 MHz).
func TestCalibrationMinPState(t *testing.T) {
	p := DefaultParams()
	w := p.NodeWatts(busyState(1200, 800, 0.9, 0.15))
	if w < 126 || w > 131 {
		t.Errorf("busy at min P-state = %.1f W, want 126-131", w)
	}
}

// TestCalibrationGatingFloor checks that the fully gated floor lands
// in the paper's ~122-125 W band: low enough for 125 W caps, too high
// for 120 W caps (Table II rows A9/B9 overshoot their cap).
func TestCalibrationGatingFloor(t *testing.T) {
	p := DefaultParams()
	floor := p.FloorWatts(1200, 800, NodeState{
		L3WaysGated: 16, L2WaysGated: 6, L1WaysGated: 12,
		TLBGatedFraction: 0.75, DRAMDuty: 0.05,
	})
	if floor < 121.5 || floor > 125 {
		t.Errorf("gating floor = %.2f W, want 121.5-125 (cannot honour 120 W)", floor)
	}
	if floor <= 120 {
		t.Errorf("floor %.2f W <= 120: paper's unreachable-cap behaviour lost", floor)
	}
}

func TestBreakdownTotalConsistent(t *testing.T) {
	p := DefaultParams()
	s := busyState(2000, 950, 0.8, 0.4)
	s.L3WaysGated = 4
	b := p.Breakdown(s)
	want := b.Idle + b.CoreDynamic + b.CoreLeak + b.Uncore + b.DRAM - b.GateSavings
	if got := b.Total(); got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
	if got := p.NodeWatts(s); got != want {
		t.Errorf("NodeWatts = %v, want %v", got, want)
	}
}

func TestIdleIgnoresGatingAndActivity(t *testing.T) {
	p := DefaultParams()
	b := p.Breakdown(NodeState{ActiveCores: 0, Activity: 0.9, MemUtil: 0.9, DRAMDuty: 1})
	if b.Total() != p.IdleWatts {
		t.Errorf("idle with junk fields = %v", b.Total())
	}
}

// TestPowerMonotoneInFrequency: with everything else fixed, power must
// not decrease as the operating point speeds up. This is the property
// that makes the BMC's P-state search well-defined.
func TestPowerMonotoneInFrequency(t *testing.T) {
	p := DefaultParams()
	type op struct{ f, v int }
	ops := []op{{1200, 800}, {1500, 860}, {1800, 920}, {2100, 980}, {2400, 1040}, {2700, 1100}}
	prev := 0.0
	for _, o := range ops {
		w := p.NodeWatts(busyState(o.f, o.v, 0.9, 0.3))
		if w < prev {
			t.Errorf("power decreased at %d MHz: %v < %v", o.f, w, prev)
		}
		prev = w
	}
}

// TestGatingAlwaysSaves: gating any structure never increases power.
func TestGatingAlwaysSaves(t *testing.T) {
	p := DefaultParams()
	f := func(l3, l2, l1 uint8, tlbFrac float64, duty float64) bool {
		base := busyState(1200, 800, 0.5, 0.2)
		gated := base
		gated.L3WaysGated = int(l3 % 20)
		gated.L2WaysGated = int(l2 % 8)
		gated.L1WaysGated = int(l1 % 16)
		gated.TLBGatedFraction = clamp01(tlbFrac)
		if duty < 0.05 {
			duty = 0.05
		}
		if duty > 1 {
			duty = 1
		}
		gated.DRAMDuty = duty
		return p.NodeWatts(gated) <= p.NodeWatts(base)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestActivityRaisesPower: more activity means more dynamic power.
func TestActivityRaisesPower(t *testing.T) {
	p := DefaultParams()
	lo := p.NodeWatts(busyState(2700, 1100, 0.1, 0.3))
	hi := p.NodeWatts(busyState(2700, 1100, 0.9, 0.3))
	if hi <= lo {
		t.Errorf("activity 0.9 (%v W) <= activity 0.1 (%v W)", hi, lo)
	}
}

// TestGatingSavingsAreSmall: the paper's conclusion 3 — sub-DVFS
// techniques yield only small power decreases. Full gating must save
// less than 8 W.
func TestGatingSavingsAreSmall(t *testing.T) {
	p := DefaultParams()
	s := busyState(1200, 800, 0.5, 0.2)
	s.L3WaysGated = 16
	s.L2WaysGated = 6
	s.L1WaysGated = 12
	s.TLBGatedFraction = 0.75
	s.DRAMDuty = 0.05
	b := p.Breakdown(s)
	if b.GateSavings <= 0 || b.GateSavings >= 8 {
		t.Errorf("full gating saves %.2f W, want (0, 8)", b.GateSavings)
	}
}

func TestClampingOfBadInputs(t *testing.T) {
	p := DefaultParams()
	s := busyState(2700, 1100, 2.5, -3) // out-of-range activity/mem
	s.DRAMDuty = 0                      // treated as ungated
	w := p.NodeWatts(s)
	wantMax := p.NodeWatts(busyState(2700, 1100, 1, 0))
	if w != wantMax {
		t.Errorf("clamped power = %v, want %v", w, wantMax)
	}
}

// parentNodeWatts and parentNodeWattsTiered are the two pricing
// formulas as they stood before they were folded into one breakdown:
// the reference TestOnePricingFunctionBitEqual compares against.
func parentNodeWatts(p Params, s NodeState) float64 {
	b := Breakdown{Idle: p.IdleWatts}
	if s.ActiveCores <= 0 {
		return b.Total()
	}
	act := clamp01(s.Activity)
	dvfs := p.DVFSFactor(s.FreqMHz, s.VoltageMV)
	b.CoreDynamic = p.CoreDynamicWatts * dvfs *
		(p.StallDynFraction + (1-p.StallDynFraction)*act) * float64(s.ActiveCores)
	if s.ClockDuty > 0 && s.ClockDuty < 1 {
		b.CoreDynamic *= s.ClockDuty + (1-s.ClockDuty)*p.ClockModFloorFraction
	}
	b.CoreLeak = p.CoreActiveLeakWatts * float64(s.ActiveCores)
	fr := float64(s.FreqMHz) / float64(p.RefFreqMHz)
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
	return b.Total()
}

func parentNodeWattsTiered(p Params, s NodeState, tiers []TierState) float64 {
	b := Breakdown{Idle: p.IdleWatts}
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
		return b.Idle
	}
	fr := float64(fastest) / float64(p.RefFreqMHz)
	b.Uncore = p.UncoreWatts * (p.UncoreFloorFraction + (1-p.UncoreFloorFraction)*fr)
	return b.Total()
}

// TestOnePricingFunctionBitEqual is the licence for pricing every node
// through one function: over seeded random states — operating points
// on and off the table, zero to sixteen active cores, out-of-range
// activities, duties and gated counts — NodeWatts, the same state
// priced as one always-on tier, and a random two-tier split all equal
// the formulas they replace to the last bit. The single-core goldens
// depend on the first equality, the serving study on the third.
func TestOnePricingFunctionBitEqual(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(21))
	unit := func() float64 { return rng.Float64()*1.4 - 0.2 } // spills past [0,1] on both sides
	tier := func() TierState {
		return TierState{FreqMHz: rng.Intn(3200), VoltageMV: 700 + rng.Intn(500),
			ActiveCores: rng.Intn(10) - 1, Activity: unit(), DutyCycle: unit()}
	}
	for i := 0; i < 20000; i++ {
		s := NodeState{
			FreqMHz: rng.Intn(3200), VoltageMV: 700 + rng.Intn(500),
			ActiveCores: rng.Intn(18) - 1, Activity: unit(), MemUtil: unit(),
			L3WaysGated: rng.Intn(21), L2WaysGated: rng.Intn(65), L1WaysGated: rng.Intn(129),
			TLBGatedFraction: unit(), DRAMDuty: unit(), ClockDuty: unit(),
		}
		want := parentNodeWatts(p, s)
		if got := p.NodeWatts(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("state %d %+v: NodeWatts = %b, parent formula = %b", i, s, got, want)
		}
		one := []TierState{{FreqMHz: s.FreqMHz, VoltageMV: s.VoltageMV, ActiveCores: s.ActiveCores,
			Activity: s.Activity, DutyCycle: 1}}
		if got := p.NodeWattsTiered(s, one); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("state %d %+v: one duty-1 tier = %b, NodeWatts = %b", i, s, got, want)
		}
		two := []TierState{tier(), tier()}
		want = parentNodeWattsTiered(p, s, two)
		if got := p.NodeWattsTiered(s, two); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("state %d %+v tiers %+v: NodeWattsTiered = %b, parent formula = %b", i, s, two, got, want)
		}
	}
}

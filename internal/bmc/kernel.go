package bmc

import "math"

// This file is the cap-enforcement law, once: pure functions over
// value types, with no plant, no telemetry and no allocation. bmc.BMC
// adapts it to a Plant (uniform or tiered) and fleet.Engine runs it
// over slices; neither holds any of the law itself.

// Pos is a plant's actuator position: the DVFS index (higher is
// slower) and the sub-DVFS gating-ladder level (0 is ungated).
type Pos struct {
	PState, Gating int32
}

// Envelope is what the law knows about the plant it drives, together
// with the tuning that depends on it, resolved once per controller so
// Step resolves nothing per tick.
type Envelope struct {
	Slowest       int32   // slowest P-state index
	MaxGating     int32   // deepest gating-ladder level
	FailSafeFloor int32   // P-state held in fail-safe mode
	FloorWatts    float64 // platform floor; ≤ 0 means unknown
	// MinWatts..MaxWatts is the plausible sensor range. A disabled
	// bound resolves to 0 / MaxFloat64, so the one range test also
	// rejects NaN, ±Inf and negative readings.
	MinWatts, MaxWatts float64
}

// Resolve builds the envelope of a plant with numPStates P-states, a
// gating ladder maxGating deep and the given platform floor (≤ 0 when
// unknown) under tuning cfg.
func Resolve(cfg Config, numPStates, maxGating int, floorWatts float64) Envelope {
	env := Envelope{
		Slowest:    int32(numPStates - 1),
		MaxGating:  int32(maxGating),
		FloorWatts: floorWatts,
		MinWatts:   max(cfg.MinPlausibleWatts, 0),
		MaxWatts:   math.MaxFloat64,
	}
	env.FailSafeFloor = env.Slowest
	if f := cfg.FailSafePState; f > 0 && f < numPStates {
		env.FailSafeFloor = int32(f)
	}
	if cfg.MaxPlausibleWatts > 0 {
		env.MaxWatts = cfg.MaxPlausibleWatts
	}
	return env
}

// State is everything one controller remembers between ticks.
type State struct {
	Smoothed  float64 // EWMA-filtered power the law acts on
	LastRaw   float64 // last delivered raw reading (stuck detection)
	BadTicks  int32   // consecutive untrusted readings
	SaneTicks int32   // consecutive trusted readings while in fail-safe
	StuckRun  int32   // consecutive identical delivered readings
	HaveEWMA  bool
	HaveRaw   bool
	// FailSafe is set while the law distrusts its sensor and holds the
	// fail-safe floor; Infeasible while the installed cap lies below
	// the platform floor.
	FailSafe   bool
	Infeasible bool
}

// Health is the out-of-band status of a controller in state st that
// has counted stats.
func (st *State) Health(stats *Stats) Health {
	return Health{FailSafe: st.FailSafe, SensorFaults: stats.SensorFaults, InfeasibleCap: st.Infeasible}
}

// Events is what a Step or an Install did beyond moving the plant: the
// transitions an adapter mirrors into fleet counters and the decision
// trace, and the actuations only the adapter can perform.
type Events uint8

const (
	SensorFault     Events = 1 << iota // the reading was untrusted
	EnteredFailSafe                    // the fault watchdog tripped
	LeftFailSafe                       // recovery completed, or a changed policy overrode the clamp
	Restore                            // Install: policy disabled — return the plant to P0, ungated
	ClampTiers                         // tiered Step: hold the fail-safe floor tier by tier
	ActTiers                           // tiered Step: run the tier ladder on st.Smoothed
)

// Install replaces policy cur with next. Re-pushing the policy already
// in force changes nothing — a manager reconciliation sweep or a
// periodic rebalance that lands on the same cap must not reset
// fail-safe or the sensor-vetting counters; only a changed operator
// intent does. A changed policy clears the defensive state (overriding
// any fail-safe clamp); disabling additionally drops the EWMA and asks
// for the plant back at full speed; a cap below the platform floor is
// installed all the same and flagged infeasible, matching the paper's
// 120 W rows where the node simply pins at its ~123-125 W floor.
func Install(env *Envelope, st *State, cur, next Policy) Events {
	if next == cur {
		return 0
	}
	var ev Events
	if st.FailSafe {
		ev = LeftFailSafe
	}
	st.FailSafe = false
	st.BadTicks = 0
	st.SaneTicks = 0
	st.StuckRun = 0
	st.HaveRaw = false
	st.Infeasible = false
	if !next.Enabled {
		st.HaveEWMA = false
		return ev | Restore
	}
	st.Infeasible = env.FloorWatts > 0 && next.CapWatts < env.FloorWatts
	return ev
}

// Step runs one control period of an enabled policy capping at capW:
// it vets the reading (w, delivered), advances the fail-safe state
// machine, folds a trusted reading into the EWMA and moves the plant
// one rung — P-states down proportionally to the excess, then up the
// gating ladder, then pinned at the floor; back down the ladder
// eagerly and up the P-states only past a solid margin. It returns the
// position the plant should take and what happened on the way.
//
// For a tiered plant the position is not the law's to move: Step stops
// short of the uniform ladder and returns ClampTiers or ActTiers for
// the adapter's tier ladder to act on.
//
// Step is deliberately ONE out-of-line call that leaves Stats.Ticks to
// its caller: it is far past the inliner's budget, and in the fleet
// engine's ~9 ns loop the shape of the call is what it costs. One call,
// with the every-tick counters added once per batch by the caller,
// matches the hand-inlined port it replaced; bumping them here per tick
// costs +11 %, and two calls (vet, then ladder, so the tiered path could
// share the first) +27-30 %. The measurements are in DESIGN.md §11.
func Step(cfg *Config, env *Envelope, capW float64, st *State, stats *Stats,
	pos Pos, w float64, delivered, tiered bool) (Pos, Events) {
	var ev Events
	if !vet(cfg, env, st, w, delivered) {
		// Never actuate — in particular never step up — on data the
		// controller cannot trust.
		stats.SensorFaults++
		ev = SensorFault
		st.SaneTicks = 0
		st.BadTicks++
		if k := cfg.FaultToleranceTicks; k > 0 && !st.FailSafe && int(st.BadTicks) >= k {
			st.FailSafe = true
			st.HaveEWMA = false
			stats.FailSafeEntries++
			ev |= EnteredFailSafe
		}
		if !st.FailSafe {
			return pos, ev
		}
		stats.FailSafeTicks++
		return hold(env, stats, pos, tiered, ev)
	}
	st.BadTicks = 0
	if st.FailSafe {
		stats.FailSafeTicks++
		st.SaneTicks++
		if int(st.SaneTicks) < max(cfg.RecoveryTicks, 1) {
			return hold(env, stats, pos, tiered, ev)
		}
		// Enough consecutive sane readings: resume control with a fresh
		// EWMA so stale pre-fault history cannot drive the first step.
		st.FailSafe = false
		st.SaneTicks = 0
		st.HaveEWMA = false
		ev = LeftFailSafe
	}

	if !st.HaveEWMA {
		st.Smoothed = w
		st.HaveEWMA = true
	} else {
		a := cfg.Smoothing
		st.Smoothed = a*w + (1-a)*st.Smoothed
	}
	sm := st.Smoothed
	if sm > capW {
		stats.OverCapTicks++
	}
	if tiered {
		return pos, ev | ActTiers
	}

	target := capW - cfg.GuardBandWatts
	switch {
	case sm > target:
		// Too hot: slow down (proportionally to the excess), then gate.
		switch {
		case pos.PState < env.Slowest:
			pos.PState = min(pos.PState+cfg.descent(sm-target, env.Slowest), env.Slowest)
			stats.StepsDown++
		case pos.Gating < env.MaxGating:
			pos.Gating++
			stats.GateEscalate++
		default:
			// Fully escalated and still above target: the cap is below
			// the platform's floor (the paper's 120 W rows).
			stats.AtFloorTicks++
		}
	case pos.Gating > 0:
		// At or under target. Ungating is cheap headroom-wise and hugely
		// valuable performance-wise, so it triggers on a small
		// undershoot; speeding the clock back up waits for a solid
		// margin.
		if sm < target-cfg.GateRelaxHysteresisWatts {
			pos.Gating--
			stats.GateRelax++
		}
	case sm < target-cfg.HysteresisWatts && pos.PState > 0:
		pos.PState--
		stats.StepsUp++
	}
	return pos, ev
}

// vet judges one reading and maintains the stuck-at tracker. Dropouts
// do not advance the tracker — a frozen sensor is one that keeps
// *delivering* the same number.
func vet(cfg *Config, env *Envelope, st *State, w float64, delivered bool) bool {
	if !delivered {
		return false
	}
	if cfg.StuckSensorTicks > 0 {
		if st.HaveRaw && w == st.LastRaw {
			st.StuckRun++
		} else {
			st.StuckRun = 0
		}
	}
	st.LastRaw = w
	st.HaveRaw = true
	return w >= env.MinWatts && w <= env.MaxWatts &&
		!(cfg.StuckSensorTicks > 0 && int(st.StuckRun) >= cfg.StuckSensorTicks)
}

// hold enforces the fail-safe floor: the plant may be slower than the
// floor (left where the last trusted decision put it), never faster.
func hold(env *Envelope, stats *Stats, pos Pos, tiered bool, ev Events) (Pos, Events) {
	if tiered {
		return pos, ev | ClampTiers
	}
	if pos.PState < env.FailSafeFloor {
		pos.PState = env.FailSafeFloor
		stats.StepsDown++
	}
	return pos, ev
}

// descent is how many P-states a reading excess watts over target
// drops in one tick: one, plus one per StepWattsPerPState of excess —
// limiting EWMA-lag overshoot into the gating ladder — and never more
// than limit, whatever the excess.
func (c *Config) descent(excess float64, limit int32) int32 {
	if c.StepWattsPerPState <= 0 {
		return 1
	}
	if n := excess / c.StepWattsPerPState; n < float64(limit) {
		return 1 + int32(n)
	}
	return limit
}

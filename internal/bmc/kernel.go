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
// Run resolves nothing per period.
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

// Events is what a Run or an Install did beyond moving the plant: the
// transitions an adapter mirrors into fleet counters and the decision
// trace, and the actuations only the adapter can perform.
type Events uint8

const (
	SensorFault     Events = 1 << iota // the reading was untrusted
	EnteredFailSafe                    // the fault watchdog tripped
	LeftFailSafe                       // recovery completed, or a changed policy overrode the clamp
	Restore                            // Install: policy disabled — return the plant to P0, ungated
	ClampTiers                         // tiered Run: hold the fail-safe floor tier by tier
	ActTiers                           // tiered Run: run the tier ladder on st.Smoothed
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

// Linear is an analytic plant: P0Watts at full speed, less
// WattsPerPState per P-state and WattsPerGate per gating level, read
// through a sensor with uniform ±NoiseWatts noise.
type Linear struct {
	P0Watts, WattsPerPState, WattsPerGate, NoiseWatts float64
}

// Watts is the plant's true draw at pos.
func (l *Linear) Watts(pos Pos) float64 {
	return l.P0Watts - l.WattsPerPState*float64(pos.PState) - l.WattsPerGate*float64(pos.Gating)
}

// Source is where Run reads power: Plant through the SplitMix64 noise
// stream whose state is Noise, one draw per period; or, when Plant is
// nil, the given reading (Watts, Delivered) in every period.
type Source struct {
	Plant     *Linear
	Noise     uint64
	Watts     float64
	Delivered bool
}

// NoiseStream is the initial state of noise stream i under seed. The
// multipliers are odd constants chosen to decorrelate adjacent streams;
// the finalizer then whitens the combination. A stream is a pure
// function of (seed, i, draw count), so any shard can draw stream i's
// next value without observing any other.
func NoiseStream(seed int64, i int) uint64 {
	return splitmix(uint64(seed)*splitmixGamma + uint64(i)*0xd1342543de82ef95 + 1)
}

const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix finalizes a SplitMix64 state word into an output word.
func splitmix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Run runs up to n control periods of an enabled policy capping at
// capW, reading src each period. A period vets the reading, advances
// the fail-safe state machine, folds a trusted reading into the EWMA
// and moves the plant one rung — P-states down proportionally to the
// excess, then up the gating ladder, then pinned at the floor; back
// down the ladder eagerly and up the P-states only past a solid margin.
// Run stops after the first period that raises any event, so its
// caller mirrors every event in order; it returns the position the
// plant should take, that period's events and how many periods ran.
//
// For a tiered plant the position is not the law's to move: a period
// stops short of the uniform ladder and returns ClampTiers or ActTiers
// for the adapter's tier ladder to act on.
//
// The law owns its loop because a call per period is what a period
// cost: Go's register ABI has no callee-saved registers, so an
// out-of-line call per node-tick spilled and reloaded every live value
// of the fleet engine's loop and round-tripped the EWMA through memory.
// Here the EWMA and the noise word live in locals and are written back
// on exit. In this general period the rarely-moving run counters and
// flags stay in st: held in locals too, they crowded the loop out of
// registers (slower at every batch size). A settled node's periods run
// in Steady instead. Stats.Ticks is left to the caller. The
// measurements are in DESIGN.md §11.
func Run(cfg *Config, env *Envelope, capW float64, st *State, stats *Stats,
	pos Pos, src *Source, n int, tiered bool) (Pos, Events, int) {
	lin, noise := src.Plant, src.Noise
	w, delivered := src.Watts, src.Delivered || lin != nil
	sm := st.Smoothed
	target := capW - cfg.GuardBandWatts

	// ev is one period's events and out the stopping period's: no event
	// word rides round the loop.
	var out Events
	ran := 0
	for ran < n {
		ran++
		var ev Events
		if lin != nil {
			noise += splitmixGamma
			f := float64(splitmix(noise)>>11) / (1 << 53)
			w = lin.Watts(pos) + (f*2-1)*lin.NoiseWatts
		}
		// Vet the reading. Dropouts do not advance the stuck-at tracker:
		// a frozen sensor is one that keeps *delivering* the same number.
		if delivered {
			if cfg.StuckSensorTicks > 0 {
				if st.HaveRaw && w == st.LastRaw {
					st.StuckRun++
				} else {
					st.StuckRun = 0
				}
			}
			st.LastRaw, st.HaveRaw = w, true
		}
		if !delivered || !(w >= env.MinWatts && w <= env.MaxWatts) ||
			cfg.StuckSensorTicks > 0 && int(st.StuckRun) >= cfg.StuckSensorTicks {
			// Never actuate — in particular never step up — on data the
			// controller cannot trust.
			stats.SensorFaults++
			ev = SensorFault
			st.SaneTicks = 0
			st.BadTicks++
			if k := cfg.FaultToleranceTicks; k > 0 && !st.FailSafe && int(st.BadTicks) >= k {
				st.FailSafe, st.HaveEWMA = true, false
				stats.FailSafeEntries++
				ev |= EnteredFailSafe
			}
			if st.FailSafe {
				stats.FailSafeTicks++
				pos, ev = hold(env, stats, pos, tiered, ev)
			}
			out = ev
			break
		}
		st.BadTicks = 0
		if st.FailSafe {
			stats.FailSafeTicks++
			st.SaneTicks++
			if int(st.SaneTicks) < max(cfg.RecoveryTicks, 1) {
				if pos, ev = hold(env, stats, pos, tiered, ev); ev != 0 {
					out = ev
					break
				}
				continue
			}
			// Enough consecutive sane readings: resume control with a
			// fresh EWMA so stale pre-fault history cannot drive the
			// first step.
			st.FailSafe, st.SaneTicks, st.HaveEWMA = false, 0, false
			ev = LeftFailSafe
		}

		if !st.HaveEWMA {
			sm, st.HaveEWMA = w, true
		} else {
			a := cfg.Smoothing
			sm = a*w + (1-a)*sm
		}
		if sm > capW {
			stats.OverCapTicks++
		}
		if tiered {
			out = ev | ActTiers
			break
		}

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
			// At or under target. Ungating is cheap headroom-wise and
			// hugely valuable performance-wise, so it triggers on a small
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
		if ev != 0 {
			out = ev
			break
		}
	}
	st.Smoothed = sm
	src.Noise = noise
	return pos, out, ran
}

// Steady runs up to n periods of Run's law in the steady state — an
// analytic plant, no fail-safe, a primed EWMA, stuck-at watch off —
// and returns the plant's position and how many periods ran. It stops
// before the first implausible reading, leaving it undrawn for Run's
// general period; outside the steady state it runs nothing. Here the
// vetting and fail-safe machine, which live only in Run, cannot act,
// so the tuning and the plant's watts at pos sit in locals, no steady
// period raises an event, and State is written back once, on exit.
// It is a second entry because Run must stay a leaf function, and its
// plant-move switch is a copy of Run's because a shared helper is too
// big to inline and cost more per period as a call than the loop
// saved (DESIGN.md §11). TestSteadyMatchesGeneralPeriods pins the two.
func Steady(cfg *Config, env *Envelope, capW float64, st *State, stats *Stats,
	pos Pos, src *Source, n int) (Pos, int) {
	lin := src.Plant
	if lin == nil || st.FailSafe || !st.HaveEWMA || cfg.StuckSensorTicks > 0 {
		return pos, 0
	}
	noise, sm := src.Noise, st.Smoothed
	a, lo, hi, amp := cfg.Smoothing, env.MinWatts, env.MaxWatts, lin.NoiseWatts
	target := capW - cfg.GuardBandWatts
	base := lin.Watts(pos)
	var w float64
	var over uint64
	ran := 0
	for ; ran < n; ran++ {
		next := noise + splitmixGamma
		f := float64(splitmix(next)>>11) / (1 << 53)
		r := base + (f*2-1)*amp
		if !(r >= lo && r <= hi) {
			break
		}
		noise, w = next, r
		sm = a*w + (1-a)*sm
		if sm > capW {
			over++
		}
		switch {
		case sm > target:
			switch {
			case pos.PState < env.Slowest:
				pos.PState = min(pos.PState+cfg.descent(sm-target, env.Slowest), env.Slowest)
				stats.StepsDown++
				base = lin.Watts(pos)
			case pos.Gating < env.MaxGating:
				pos.Gating++
				stats.GateEscalate++
				base = lin.Watts(pos)
			default:
				stats.AtFloorTicks++
			}
		case pos.Gating > 0:
			if sm < target-cfg.GateRelaxHysteresisWatts {
				pos.Gating--
				stats.GateRelax++
				base = lin.Watts(pos)
			}
		case sm < target-cfg.HysteresisWatts && pos.PState > 0:
			pos.PState--
			stats.StepsUp++
			base = lin.Watts(pos)
		}
	}
	if ran > 0 {
		st.Smoothed, st.LastRaw, st.HaveRaw, st.BadTicks = sm, w, true, 0
		stats.OverCapTicks += over
		src.Noise = noise
	}
	return pos, ran
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

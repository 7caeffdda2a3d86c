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
// in SteadyLanes instead. Stats.Ticks is left to the caller. The
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
			w = reading(lin.Watts(pos), lin.NoiseWatts, noise)
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

// Lane is one node's slot in SteadyLanes: its controller records, the
// plant's position, its noise word and its cap. SteadyLanes updates
// Pos and Noise in place and writes St and Stats once, on exit.
type Lane struct {
	St    *State
	Stats *Stats
	Pos   Pos
	Noise uint64
	CapW  float64
}

// Settled reports whether a node with controller state st, its plant lin
// at pos, is in the steady state SteadyLanes runs: no fail-safe, a
// primed EWMA, stuck-at watch off, and every reading the plant can
// deliver at pos plausible. Whether the node is capped and its sensor
// delivers is the caller's to know.
func Settled(cfg *Config, env *Envelope, lin *Linear, st *State, pos Pos) bool {
	return !st.FailSafe && st.HaveEWMA && cfg.StuckSensorTicks == 0 && plausible(env, lin, lin.Watts(pos))
}

// plausible reports whether every reading of plant lin at true draw base
// lies in env's plausible range. A reading is base + x*NoiseWatts with
// x in [-1, 1), and rounding is monotonic, so the two extremes bound it.
func plausible(env *Envelope, lin *Linear, base float64) bool {
	amp := math.Abs(lin.NoiseWatts)
	return base-amp >= env.MinWatts && base+amp <= env.MaxWatts
}

// reading is what a sensor with noise amplitude amp reads at true draw
// base for the noise stream word noise (already advanced).
func reading(base, amp float64, noise uint64) float64 {
	// f*2-1 for f = float64(splitmix(noise)>>11) / (1 << 53) in [0, 1):
	// both forms are exact, and this one is a multiply shorter.
	x := float64(splitmix(noise)>>11)/(1<<52) - 1
	return base + x*amp
}

// lane is SteadyLanes' working copy of one Lane: the plant's watts at
// its position and the band [low, tgt] its EWMA may take without a
// move, and the counters it adds to Stats on exit.
type lane struct {
	base, tgt, low, capW float64
	// prev is the base the lane read in period moved, its last move.
	prev  float64
	moved int
	pos   Pos
	stats Stats
}

// band sets the lane's lower bound: the undershoot that relaxes a
// gating level when gated, the one that raises the P-state below P0,
// and none at full speed. Above tgt the lane slows down.
func (l *lane) band(cfg *Config) {
	switch {
	case l.pos.Gating > 0:
		l.low = l.tgt - cfg.GateRelaxHysteresisWatts
	case l.pos.PState > 0:
		l.low = l.tgt - cfg.HysteresisWatts
	default:
		l.low = math.Inf(-1)
	}
}

// SteadyLanes runs up to n periods of Run's law for one to four settled
// nodes (see Settled) in lockstep, all over plant lin, and returns how
// many periods ran: the same for every lane. Each lane's noise word and
// EWMA live in registers, so the four dependent chains overlap. A
// period in which every EWMA stays inside its lane's band moves
// nothing, raises nothing and counts nothing (GuardBandWatts ≥ 0, so
// the band lies under the cap), and costs no branch taken. A lane that
// leaves its band calls move, the one out-of-line copy of Run's
// plant-move switch outside Run. A move after which the lane's
// base ± NoiseWatts leaves the plausible range stops every lane after
// that period, before any lane draws a reading Run's general period
// would have to vet. Fewer than four lanes are padded with ghosts of
// the last lane whose results are dropped.
//
// LastRaw is not carried per lane (it cost a register in every lane):
// it is recomputed on exit from the final noise word and the base the
// last period read, which is the pre-move base if that period moved.
// TestLanesMatchGeneralPeriods pins SteadyLanes to Run; the
// measurements are in DESIGN.md §11.
func SteadyLanes(cfg *Config, env *Envelope, lin *Linear, lanes []Lane, n int) int {
	var ls [4]lane
	var noise [4]uint64
	var sm [4]float64
	for j := range ls {
		in, l := &lanes[min(j, len(lanes)-1)], &ls[j]
		l.pos, l.capW, l.tgt, l.moved = in.Pos, in.CapW, in.CapW-cfg.GuardBandWatts, -1
		l.base = lin.Watts(l.pos)
		l.band(cfg)
		noise[j], sm[j] = in.Noise, in.St.Smoothed
	}
	a, b, amp := cfg.Smoothing, 1-cfg.Smoothing, lin.NoiseWatts
	n0, n1, n2, n3 := noise[0], noise[1], noise[2], noise[3]
	s0, s1, s2, s3 := sm[0], sm[1], sm[2], sm[3]
	ran := 0
	for ran < n {
		n0 += splitmixGamma
		n1 += splitmixGamma
		n2 += splitmixGamma
		n3 += splitmixGamma
		s0 = a*reading(ls[0].base, amp, n0) + b*s0
		s1 = a*reading(ls[1].base, amp, n1) + b*s1
		s2 = a*reading(ls[2].base, amp, n2) + b*s2
		s3 = a*reading(ls[3].base, amp, n3) + b*s3
		p := ran
		ran++
		stop := false
		if s0 > ls[0].tgt || s0 < ls[0].low {
			stop = !ls[0].move(cfg, env, lin, s0, p)
		}
		if s1 > ls[1].tgt || s1 < ls[1].low {
			stop = !ls[1].move(cfg, env, lin, s1, p) || stop
		}
		if s2 > ls[2].tgt || s2 < ls[2].low {
			stop = !ls[2].move(cfg, env, lin, s2, p) || stop
		}
		if s3 > ls[3].tgt || s3 < ls[3].low {
			stop = !ls[3].move(cfg, env, lin, s3, p) || stop
		}
		if stop {
			break
		}
	}
	if ran == 0 {
		return 0
	}
	noise, sm = [4]uint64{n0, n1, n2, n3}, [4]float64{s0, s1, s2, s3}
	for j := range lanes {
		l, out := &ls[j], &lanes[j]
		base := l.base
		if l.moved == ran-1 {
			base = l.prev
		}
		out.Pos, out.Noise = l.pos, noise[j]
		out.St.Smoothed, out.St.LastRaw, out.St.HaveRaw, out.St.BadTicks = sm[j], reading(base, amp, noise[j]), true, 0
		out.Stats.Add(&l.stats)
	}
	return ran
}

// move is Run's plant-move switch for a lane whose EWMA sm left its band
// in period p. It counts the period over the cap if it was, moves the
// plant, recomputes base and band, and reports whether every reading
// at the new base is plausible.
func (l *lane) move(cfg *Config, env *Envelope, lin *Linear, sm float64, p int) bool {
	if sm > l.capW {
		l.stats.OverCapTicks++
	}
	pos := l.pos
	switch {
	case sm > l.tgt:
		switch {
		case pos.PState < env.Slowest:
			pos.PState = min(pos.PState+cfg.descent(sm-l.tgt, env.Slowest), env.Slowest)
			l.stats.StepsDown++
		case pos.Gating < env.MaxGating:
			pos.Gating++
			l.stats.GateEscalate++
		default:
			l.stats.AtFloorTicks++
		}
	case pos.Gating > 0:
		if sm < l.tgt-cfg.GateRelaxHysteresisWatts {
			pos.Gating--
			l.stats.GateRelax++
		}
	case sm < l.tgt-cfg.HysteresisWatts && pos.PState > 0:
		pos.PState--
		l.stats.StepsUp++
	}
	if pos == l.pos {
		return true
	}
	l.prev, l.moved, l.pos = l.base, p, pos
	l.base = lin.Watts(pos)
	l.band(cfg)
	return plausible(env, lin, l.base)
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

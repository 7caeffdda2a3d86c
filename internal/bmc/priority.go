package bmc

import "nodecap/internal/telemetry"

// PriorityPlant is an optional Plant extension for machines whose
// cores are split into a latency-critical serving tier and a batch
// tier with independent DVFS (the SST-BF deployment model: per-core
// high/low priority with a frequency floor on the high side).
//
// When the plant implements it, the controller's escalation path
// becomes priority-aware: a cap steals power from the batch tier
// first — dropping its P-state, then gating its private cache ways
// and TLB entries — and touches the serving tier only when the batch
// side is fully squeezed, holding the serving tier at its configured
// frequency floor. The floor is broken only when the cap is otherwise
// infeasible (every other mechanism exhausted), mirroring how the
// paper's 120 W rows pin at the platform floor.
//
// The inherited Plant methods keep their package-wide meaning:
// SetPState moves both tiers (used when a policy is disabled), and
// GatingLevel/SetGatingLevel drive the shared-structure ladder
// (L3 ways, DRAM duty) that affects every core.
type PriorityPlant interface {
	Plant
	// BatchPState / SetBatchPState drive the batch tier's operating
	// point; index semantics match Plant.PStateIndex (higher = slower).
	BatchPState() int
	SetBatchPState(i int)
	// ServingPState / SetServingPState drive the serving tier.
	ServingPState() int
	SetServingPState(i int)
	// ServingFloorPState is the slowest P-state the serving tier may
	// be held at before the controller must break the floor.
	ServingFloorPState() int
	// BatchGatingLevel ladder positions gate only the batch cores'
	// private structures (cache ways, TLB entries); shared structures
	// stay on the Plant-level ladder.
	BatchGatingLevel() int
	MaxBatchGatingLevel() int
	SetBatchGatingLevel(l int)
}

// clampTierFailSafe enforces the fail-safe floor tier by tier: neither
// tier may run faster than the floor while the sensor is distrusted,
// but a tier already slower is left where the last trusted decision
// put it (a package-wide SetPState could speed the batch tier *up* on
// untrusted data, which is exactly what fail-safe must never do).
func (b *BMC) clampTierFailSafe() {
	pp, floor := b.tiers, int(b.env.FailSafeFloor)
	if pp.ServingPState() < floor {
		pp.SetServingPState(floor)
		b.stats.StepsDown++
	}
	if pp.BatchPState() < floor {
		pp.SetBatchPState(floor)
		b.stats.StepsDown++
	}
}

// tickPriority is the tier ladder: the priority-aware control decision
// Tick runs when Run returns ActTiers, with the trusted reading
// already folded into the smoothed estimate. One actuation per tick,
// like the uniform ladder.
//
// Escalation order (too hot): batch P-state down → batch private
// gating → serving P-state down to its floor → shared-structure
// gating → break the floor (serving below its floor; the cap is
// infeasible without it). De-escalation reverses the priority: the
// serving tier is restored first (below-floor recovery is eager, like
// ungating), then shared structures ungate, then the batch tier gets
// its ways and clocks back.
func (b *BMC) tickPriority() {
	pp, smoothed := b.tiers, b.st.Smoothed
	target := b.policy.CapWatts - b.cfg.GuardBandWatts
	slowest := int(b.env.Slowest)
	floor := min(max(pp.ServingFloorPState(), 0), slowest)

	if smoothed > target {
		// Too hot: steal from the batch tier first.
		steps := int(b.cfg.descent(smoothed-target, b.env.Slowest))
		if p := pp.BatchPState(); p < slowest {
			pp.SetBatchPState(p + steps)
			b.stats.StepsDown++
			b.recordBatchSteal(int64(pp.BatchPState()))
			return
		}
		if g := pp.BatchGatingLevel(); g < pp.MaxBatchGatingLevel() {
			pp.SetBatchGatingLevel(g + 1)
			b.stats.GateEscalate++
			b.recordBatchSteal(int64(g + 1))
			return
		}
		// Batch fully squeezed: bring the serving tier down, but no
		// further than its floor.
		if p := pp.ServingPState(); p < floor {
			next := p + steps
			if next > floor {
				next = floor
			}
			pp.SetServingPState(next)
			b.stats.StepsDown++
			if next == floor {
				b.recordFloorHold(int64(floor))
			}
			return
		}
		// Serving at its floor: gate the shared structures before
		// considering a break.
		if g := pp.GatingLevel(); g < pp.MaxGatingLevel() {
			pp.SetGatingLevel(g + 1)
			b.stats.GateEscalate++
			if pp.ServingPState() == floor {
				b.recordFloorHold(int64(floor))
			}
			return
		}
		// Everything else is exhausted: the cap is infeasible while the
		// floor stands. Break it one step at a time.
		if p := pp.ServingPState(); p < slowest {
			pp.SetServingPState(p + 1)
			b.stats.StepsDown++
			b.recordFloorBreak(int64(p + 1))
			return
		}
		b.stats.AtFloorTicks++
		return
	}

	// At or under target: give watts back in priority order.
	if p := pp.ServingPState(); p > floor {
		// Below-floor recovery is eager (small hysteresis): restoring
		// the serving tier's floor is the whole point of the policy.
		if smoothed < target-b.cfg.GateRelaxHysteresisWatts {
			pp.SetServingPState(p - 1)
			b.stats.StepsUp++
		}
		return
	}
	if g := pp.GatingLevel(); g > 0 {
		if smoothed < target-b.cfg.GateRelaxHysteresisWatts {
			pp.SetGatingLevel(g - 1)
			b.stats.GateRelax++
		}
		return
	}
	if smoothed < target-b.cfg.HysteresisWatts {
		if p := pp.ServingPState(); p > 0 {
			pp.SetServingPState(p - 1)
			b.stats.StepsUp++
			return
		}
		if g := pp.BatchGatingLevel(); g > 0 {
			pp.SetBatchGatingLevel(g - 1)
			b.stats.GateRelax++
			return
		}
		if p := pp.BatchPState(); p > 0 {
			pp.SetBatchPState(p - 1)
			b.stats.StepsUp++
		}
	}
}

func (b *BMC) recordBatchSteal(n int64) {
	b.stats.BatchSteals++
	b.mBatchSteals.Inc()
	b.trace.Append(telemetry.Event{Node: b.traceNode, Kind: telemetry.EvBatchSteal, N: n})
}

func (b *BMC) recordFloorHold(n int64) {
	b.stats.FloorHolds++
	b.mFloorHolds.Inc()
	b.trace.Append(telemetry.Event{Node: b.traceNode, Kind: telemetry.EvFloorHold, N: n})
}

func (b *BMC) recordFloorBreak(n int64) {
	b.stats.FloorBreaks++
	b.mFloorBreaks.Inc()
	b.trace.Append(telemetry.Event{Node: b.traceNode, Kind: telemetry.EvFloorBreak, N: n})
}

package chaos

import (
	"fmt"
	"reflect"

	"nodecap/internal/dcm"
	"nodecap/internal/dcm/store"
)

// Invariant names (the keys of Verdict.Checks).
const (
	InvCapRespected       = "cap_respected"
	InvBudgetConserved    = "budget_conserved"
	InvNoFailSafeSpeedup  = "no_failsafe_speedup"
	InvRecoveryIntegrity  = "recovery_integrity"
	InvSingleWriter       = "single_writer"
	InvReplicaConvergence = "replica_convergence"
	InvCapPushBounded     = "cap_push_bounded"
	InvNoStarvation       = "no_starvation"
	InvTreeBudget         = "tree_budget_conserved"
	InvSingleOwner        = "single_owner"
)

// Checker tuning.
const (
	// TolWatts is the slack allowed over an applied cap: sensor noise
	// (±0.4 W) plus controller guard-band dithering.
	TolWatts = 2.0
	// SustainTicks is how many consecutive settled over-cap ticks
	// constitute a violation (a transient dither spike is not).
	SustainTicks = 8
	// SettleTicks is the convergence window granted after a material
	// cap change before the cap is enforced by the checker.
	SettleTicks = 40

	maxRecordedViolations = 25

	// violationTraceWindow is how many trailing control-decision trace
	// events each recorded violation carries for post-mortem context.
	violationTraceWindow = 12

	// CapPushBoundTicks is cap_push_bounded's deadline: a cap allocated
	// to a clean-link node must be applied by that node's BMC within
	// this many ticks, no matter how much of the rest of the fleet is
	// slow or flapping — the end-to-end guarantee the priority lane and
	// breaker isolation exist to provide.
	CapPushBoundTicks = 60

	// StarvationRounds is no_starvation's deadline, in poll rounds: a
	// clean-link node must have its power reading fetched at least once
	// every StarvationRounds rounds. Sized to let a just-healed node sit
	// out a full quarantine hold plus a few probe gates before the
	// checker calls it starved.
	StarvationRounds = 16

	// capPushTolW absorbs the wire codec's 0.01 W cap resolution when
	// matching an applied cap against the allocated one.
	capPushTolW = 0.011
)

// invariants is the per-run checker state.
type invariants struct {
	f *Fleet

	// Gray-failure checker state (solo scenarios only; the HA pair
	// resets manager-side counters at every promotion). pollRounds
	// counts completed manager poll rounds; lastSampled[i] is the round
	// node i's power reading was last fetched (frozen while the node is
	// ineligible). pending* track the newest budget allocation to each
	// clean-link node that its BMC has not yet applied. elig/sampledBuf
	// are reused snapshot buffers.
	gray        bool
	pollRounds  int
	lastSampled []int
	pendingOn   []bool
	pendingCap  []float64
	pendingTick []int
	elig        []bool
	sampledBuf  []bool

	checks         map[string]int
	violations     []Violation
	violationCount int
}

func newInvariants(f *Fleet) *invariants {
	n := f.scenario.Nodes
	return &invariants{
		f:           f,
		gray:        !f.scenario.HA && f.scenario.Shards == 0,
		lastSampled: make([]int, n),
		pendingOn:   make([]bool, n),
		pendingCap:  make([]float64, n),
		pendingTick: make([]int, n),
		elig:        make([]bool, n),
		sampledBuf:  make([]bool, n),
		checks: map[string]int{
			InvCapRespected:       0,
			InvBudgetConserved:    0,
			InvNoFailSafeSpeedup:  0,
			InvRecoveryIntegrity:  0,
			InvSingleWriter:       0,
			InvReplicaConvergence: 0,
			InvCapPushBounded:     0,
			InvNoStarvation:       0,
			InvTreeBudget:         0,
			InvSingleOwner:        0,
		},
		violations: []Violation{},
	}
}

// notePoll records one poll round, consuming the fleet's sampled marks
// into the starvation clock. A round due while the leader is down
// counts too, harmlessly: checkTick rebases every node's clock on each
// such tick, so only ages since the leader returned are ever judged.
func (iv *invariants) notePoll() {
	if !iv.gray {
		return
	}
	iv.pollRounds++
	iv.f.takeSampled(iv.sampledBuf)
	for i, s := range iv.sampledBuf {
		if s {
			iv.lastSampled[i] = iv.pollRounds
		}
	}
}

// noteAllocs arms cap_push_bounded for every allocation handed to a
// clean-link node: its BMC must apply that cap within
// CapPushBoundTicks. Allocations to sick nodes are not tracked — the
// bound is a promise about healthy nodes under a degraded fleet, not
// about the degraded nodes themselves.
func (iv *invariants) noteAllocs(allocs []dcm.Allocation, tick int) {
	if !iv.gray {
		return
	}
	iv.f.refreshElig(iv.elig)
	for _, a := range allocs {
		i, ok := iv.f.nameIdx[a.Name]
		if !ok || !iv.f.registered[i] || !iv.elig[i] || a.CapWatts <= 0 {
			continue
		}
		// A re-allocation to a still-unresolved node updates the cap to
		// match but keeps the original deadline: the node has owed *some*
		// applied cap since the first unmet allocation, and restarting
		// the clock every rebalance would let a wedged push path skate
		// forever.
		if !iv.pendingOn[i] {
			iv.pendingTick[i] = tick
		}
		iv.pendingOn[i] = true
		iv.pendingCap[i] = a.CapWatts
	}
}

// clearGray drops all armed cap-push deadlines and rebases the
// starvation clock — called while the manager is down (there is no
// pusher or poller to hold to a deadline).
func (iv *invariants) clearGray() {
	for i := range iv.pendingOn {
		iv.pendingOn[i] = false
		iv.lastSampled[i] = iv.pollRounds
	}
}

func (iv *invariants) violate(format string, args ...any) {
	iv.violationCount++
	if len(iv.violations) < maxRecordedViolations {
		iv.violations = append(iv.violations, Violation{
			Msg:   fmt.Sprintf(format, args...),
			Trace: iv.f.trace.Tail(violationTraceWindow, ""),
		})
	}
}

// checkTick asserts the fleet-wide per-node invariants in ONE fused
// pass over the engine's structure-of-arrays audit view, under a
// single engine lock — one mutex acquisition per tick instead of one
// per node per invariant, which is what makes a 10k-node × 10k-tick
// audit affordable. Then the budget invariant sums the manager's
// desired caps (allocation-free).
//
// The per-node invariants:
//
//   - cap_respected: no node's sustained TRUE power exceeds the cap
//     its own BMC has applied (not the manager's desired cap — a
//     partitioned node correctly keeps enforcing the last cap it
//     heard) beyond tolerance. Exempt while: the policy is disabled,
//     the cap is below the platform floor (applied-but-infeasible,
//     the paper's 120 W rows), the controller is in fail-safe (it
//     refuses to actuate on a lying sensor), the sensor fault
//     injector is active (a plant told to ignore actuations cannot
//     honour anything), or the cap changed within the settle window.
//   - no_failsafe_speedup: while the controller distrusts its sensor
//     (fail-safe), the plant must never step a P-state up, and must
//     never run faster than the configured fail-safe floor.
//     Observations are the pre/post snapshots the engine recorded
//     during the tick, so a policy push between the tick and this
//     check cannot blur them.
//   - single_writer: the fencing epoch actuating a node's plant never
//     moves backwards. The engine records, past the server-side
//     fence, the highest epoch that ever reached each node and counts
//     pushes carrying a lower one; any such regression means a
//     deposed leader's command actuated hardware after a newer
//     leader's — split-brain, the exact thing the fence exists to
//     make impossible. The count is consumed against a watermark so
//     each regression is reported once, at the tick it happened.
//
// Two more ride the same fused pass in gray-failure (solo) scenarios:
//
//   - cap_push_bounded: every budget allocation handed to a clean-link
//     node is applied by that node's BMC within CapPushBoundTicks,
//     however degraded the rest of the fleet is. A node that turns
//     sick mid-deadline is released from it.
//   - no_starvation: every clean-link node's power reading is fetched
//     at least once every StarvationRounds poll rounds — breaker
//     holds, brownout shedding and busy-skips may delay a sample but
//     never orphan a healthy node.
func (iv *invariants) checkTick(tick int) {
	e := iv.f.eng
	p := e.Params()
	floor := e.FloorWatts()
	fsFloor := p.Envelope().FailSafeFloor
	var capChecks, fsChecks, writerChecks, pushChecks int

	grayOn := iv.gray
	if grayOn {
		if iv.f.leader() == nil {
			iv.clearGray()
			grayOn = false
		} else {
			iv.f.refreshElig(iv.elig)
		}
	}

	e.Lock()
	a := e.Audit()
	n := e.Nodes()
	for i := 0; i < n; i++ {
		// cap_respected
		capW := a.CapWatts[i]
		eligible := a.CapEnabled[i] &&
			!a.PostFailSafe[i] &&
			!a.Dropout[i] &&
			capW >= floor-1e-9 &&
			a.SinceCapChange[i] > SettleTicks
		if !eligible {
			a.OverTicks[i] = 0
		} else {
			capChecks++
			truth := p.TrueWatts(a.PState[i], a.Gating[i])
			if truth > capW+TolWatts {
				a.OverTicks[i]++
			} else {
				a.OverTicks[i] = 0
			}
			if a.OverTicks[i] == SustainTicks {
				iv.violate("tick %d: %s: %s: true power %.2f W above applied cap %.2f W for %d settled ticks",
					tick, e.Name(i), InvCapRespected, truth, capW, a.OverTicks[i])
			}
		}

		// no_failsafe_speedup
		fsChecks++
		pre, post := a.PrePState[i], a.PostPState[i]
		if a.PreFailSafe[i] && a.PostFailSafe[i] && post < pre {
			iv.violate("tick %d: %s: %s: P-state stepped up %d→%d during fail-safe",
				tick, e.Name(i), InvNoFailSafeSpeedup, pre, post)
		} else if a.PostFailSafe[i] && post < fsFloor {
			iv.violate("tick %d: %s: %s: P%d faster than fail-safe floor P%d",
				tick, e.Name(i), InvNoFailSafeSpeedup, post, fsFloor)
		}

		// single_writer
		writerChecks++
		reg, prev := a.EpochRegressions[i], a.RegSeen[i]
		a.RegSeen[i] = reg
		if reg > prev {
			iv.violate("tick %d: %s: %s: %d stale-epoch actuation(s) reached the plant",
				tick, e.Name(i), InvSingleWriter, reg-prev)
		}

		// cap_push_bounded
		if grayOn && iv.pendingOn[i] {
			switch {
			case !iv.f.registered[i] || !iv.elig[i]:
				// The node turned sick (or left the group) mid-deadline;
				// the bound is only promised to healthy members.
				iv.pendingOn[i] = false
			case a.CapEnabled[i] &&
				a.CapWatts[i] >= iv.pendingCap[i]-capPushTolW &&
				a.CapWatts[i] <= iv.pendingCap[i]+capPushTolW:
				iv.pendingOn[i] = false
				pushChecks++
			case tick-iv.pendingTick[i] > CapPushBoundTicks:
				iv.violate("tick %d: %s: %s: cap %.2f W allocated at tick %d still not applied after %d ticks",
					tick, e.Name(i), InvCapPushBounded, iv.pendingCap[i], iv.pendingTick[i], tick-iv.pendingTick[i])
				iv.pendingOn[i] = false
				pushChecks++
			}
		}
	}
	e.Unlock()

	iv.checks[InvCapRespected] += capChecks
	iv.checks[InvNoFailSafeSpeedup] += fsChecks
	iv.checks[InvSingleWriter] += writerChecks
	iv.checks[InvCapPushBounded] += pushChecks
	if grayOn {
		iv.checkStarvation(tick)
	}
	if iv.f.tree != nil {
		iv.checkShardTick(tick)
	} else {
		iv.checkBudgetConserved(tick)
	}
}

// checkShardTick asserts the sharded-tree invariants:
//
//   - single_owner: every cap push the plant admitted this tick was
//     carried by the node's CURRENT owning leaf. Handoffs run at event
//     time (tick start) and pushes after, so ownership is current when
//     the log drains. A push from anyone else means the fencing epoch
//     failed to depose the old writer — the dual-writer state
//     -break-handoff manufactures.
//   - tree_budget_conserved: the sum of enabled desired caps across
//     attached leaves (each node counted once, under its owner — a
//     seized leaf's caps are fenced void) never exceeds the datacenter
//     budget. When the cascade flagged the budget infeasible the bound
//     is the attached platform-minimum sum instead: the tree pins to
//     minimums rather than pushing caps the plants cannot honour. The
//     minimum sum is only computed on the slow path (sum over budget),
//     keeping the per-tick audit allocation-free at fleet scale.
func (iv *invariants) checkShardTick(tick int) {
	f := iv.f
	for _, p := range f.pushLog {
		iv.checks[InvSingleOwner]++
		name := f.name(p.node)
		owner, ok := f.tree.Owner(name)
		if pusher := f.leaves[p.leaf].name; !ok || owner != pusher {
			iv.violate("tick %d: %s: %s: plant admitted a cap push from leaf %s but the owner is %q",
				tick, name, InvSingleOwner, pusher, owner)
		}
	}
	f.pushLog = f.pushLog[:0]

	iv.checks[InvTreeBudget]++
	sum := f.tree.DesiredSum()
	if sum <= f.budget+1e-6 {
		return
	}
	bound := f.budget
	if f.tree.Infeasible() {
		var minSum float64
		for _, lf := range f.leaves {
			if m := lf.acting(); m != nil && !m.isolated {
				for _, st := range m.mgr.Nodes() {
					minSum += st.MinCapWatts
				}
			}
		}
		if sum <= minSum+1e-6 {
			return
		}
		bound = minSum
	}
	iv.violate("tick %d: %s: leaf-pushed caps sum %.3f W over datacenter budget bound %.3f W",
		tick, InvTreeBudget, sum, bound)
}

// checkStarvation asserts no_starvation against the poll-round clock:
// a clean-link registered node whose last sample is more than
// StarvationRounds rounds old has been orphaned by the defense layer.
// Ineligible nodes ride the clock at age zero, so a healing node owes
// nothing for time it was legitimately dark.
func (iv *invariants) checkStarvation(tick int) {
	for i := range iv.lastSampled {
		if !iv.f.registered[i] || !iv.elig[i] {
			iv.lastSampled[i] = iv.pollRounds
			continue
		}
		iv.checks[InvNoStarvation]++
		if iv.pollRounds-iv.lastSampled[i] > StarvationRounds {
			iv.violate("tick %d: %s: %s: healthy node unsampled for %d poll rounds (bound %d)",
				tick, iv.f.name(i), InvNoStarvation, iv.pollRounds-iv.lastSampled[i], StarvationRounds)
			iv.lastSampled[i] = iv.pollRounds
		}
	}
}

// checkBudgetConserved: the sum of the manager's enabled desired caps
// never exceeds the group budget. This must hold across crash-restart
// rollback too, which is exactly why ApplyBudget pushes (and
// journals) decreases before increases: every journal prefix sums
// within budget. Skipped while the leader is down — there is no
// allocator state to audit. A tree audits tree_budget_conserved
// instead.
func (iv *invariants) checkBudgetConserved(tick int) {
	mgr := iv.f.leader()
	if mgr == nil {
		return
	}
	sum := mgr.DesiredCapSum()
	iv.checks[InvBudgetConserved]++
	if sum > iv.f.budget+1e-6 {
		iv.violate("tick %d: %s: allocated caps sum %.3f W over budget %.3f W",
			tick, InvBudgetConserved, sum, iv.f.budget)
	}
}

// checkRecovered asserts that a manager's recovered state equals the
// shadow model's expectation, under one of two invariants:
//
//   - recovery_integrity: after a crash-restart, the state the reopened
//     store recovered must equal the fold of every shadow-tracked
//     operation that survived the torn cut — nothing more (resurrected
//     writes), nothing less (lost acknowledged writes), nothing skewed
//     (float or codec drift).
//   - replica_convergence: at a failover, the state the promoted
//     standby recovered from its replicated journal (after the
//     torn-tail cut) must equal the fold of the primary's journaled
//     history up to the acknowledged replication cursor minus the torn
//     records — verified against the harness's independent leader
//     book, so a corrupted or skipped frame anywhere in the replication
//     path shows up as divergence.
func (iv *invariants) checkRecovered(tick int, inv string, got, want store.State) {
	iv.checks[inv]++
	if reflect.DeepEqual(normalizeState(got), normalizeState(want)) {
		return
	}
	what := "recovered state diverges from journaled history"
	if inv == InvReplicaConvergence {
		what = "promoted standby diverges from primary's journaled history"
	}
	iv.violate("tick %d: %s: %s: got %s, want %s", tick, inv, what, stateString(got), stateString(want))
}

// stateString renders s as %+v would, but with the budget dereferenced:
// %+v prints a *BudgetRecord as its heap address, which differs from run
// to run and would break bit-identical verdict replay. fmt sorts map
// keys, so the node set renders deterministically.
func stateString(s store.State) string {
	budget := "<nil>"
	if s.Budget != nil {
		budget = fmt.Sprintf("%+v", *s.Budget)
	}
	return fmt.Sprintf("{Nodes:%+v Budget:%s}", s.Nodes, budget)
}

// normalizeState maps an empty node set and budget to canonical nil
// forms so DeepEqual compares semantics, not map allocation identity.
func normalizeState(s store.State) store.State {
	if len(s.Nodes) == 0 {
		s.Nodes = nil
	}
	if s.Budget != nil && len(s.Budget.Group) == 0 {
		b := *s.Budget
		b.Group = nil
		s.Budget = &b
	}
	return s
}

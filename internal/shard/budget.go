package shard

import (
	"errors"

	"nodecap/internal/telemetry"
)

// The budget cascade divides the datacenter budget down a synthetic
// topology tree — datacenter → rows → racks → shards — instead of
// flat across every node. Each level sees only its children's demand
// summaries (Σ platform minimum, Σ recent demand, Σ platform maximum)
// and divides its grant among them with the same min-floor +
// demand-proportional shape dcm's per-node waterfill uses. Conservation
// is structural: every divide hands out at most its own grant, so the
// sum of leaf budgets can never exceed the datacenter budget (except
// when that budget is below the platform minimums — then every level
// pins to minimums and flags the allocation infeasible rather than
// issuing caps the plants cannot honour).

// cascadeFanout is how many children each internal tree level groups.
const cascadeFanout = 2

// demandSummary is one subtree's aggregated demand.
type demandSummary struct {
	min, want, max float64
}

// CascadeResult reports one Rebalance pass.
type CascadeResult struct {
	Budget     float64
	Leaves     map[string]float64 // leaf name -> granted shard budget
	Infeasible bool               // datacenter budget below platform minimums
	Applied    int                // leaves whose budget was applied
}

// divide grants budget across children: every child gets its minimum
// first; the remainder is distributed proportionally to demand above
// the minimum, capped at each child's maximum; spare budget tops
// children toward their maximums in index order. When the budget does
// not cover the minimums the grants pin to the minimums (the
// infeasible verdict is the root's to flag). Children arrive in a
// deterministic order, so the division is too.
func divide(budget float64, children []demandSummary) []float64 {
	grants := make([]float64, len(children))
	var minSum float64
	for i, c := range children {
		grants[i] = c.min
		minSum += c.min
	}
	remaining := budget - minSum
	if remaining <= 0 {
		return grants
	}
	// Demand-proportional passes until the pool drains or everyone
	// saturates at max.
	for pass := 0; pass < 8 && remaining > 1e-9; pass++ {
		var claimSum float64
		for i, c := range children {
			if room := c.max - grants[i]; room > 1e-9 {
				claim := c.want - grants[i]
				if claim > room {
					claim = room
				}
				if claim > 0 {
					claimSum += claim
				}
			}
		}
		if claimSum <= 1e-9 {
			break
		}
		distributed := false
		for i, c := range children {
			room := c.max - grants[i]
			if room <= 1e-9 {
				continue
			}
			claim := c.want - grants[i]
			if claim > room {
				claim = room
			}
			if claim <= 0 {
				continue
			}
			give := remaining * claim / claimSum
			if give > claim {
				give = claim
			}
			if give > 0 {
				grants[i] += give
				distributed = true
			}
		}
		var granted float64
		for _, g := range grants {
			granted += g
		}
		remaining = budget - granted
		if !distributed {
			break
		}
	}
	// Spare pass: everyone's demand is met, raise toward maximums.
	for i, c := range children {
		if remaining <= 1e-9 {
			break
		}
		if room := c.max - grants[i]; room > 0 {
			give := remaining
			if give > room {
				give = room
			}
			grants[i] += give
			remaining -= give
		}
	}
	return grants
}

// cascade runs budget down the synthetic topology over the given
// (deterministically ordered) leaf summaries: leaves pair into racks,
// racks into rows, rows under the datacenter root. Aggregation then
// division level by level — the row split sees only rack totals, the
// rack split only its own leaves — so no level needs (or gets) global
// state, the property that lets the real DCM scale this shape out.
func cascade(budget float64, leaves []demandSummary) []float64 {
	if len(leaves) == 0 {
		return nil
	}
	// Build level groupings bottom-up: each level is a list of index
	// ranges [start, end) over the level below.
	levels := [][]demandSummary{leaves}
	for len(levels[len(levels)-1]) > 1 && len(levels) < 3 {
		below := levels[len(levels)-1]
		var above []demandSummary
		for i := 0; i < len(below); i += cascadeFanout {
			end := min(i+cascadeFanout, len(below))
			var s demandSummary
			for _, c := range below[i:end] {
				s.min += c.min
				s.want += c.want
				s.max += c.max
			}
			above = append(above, s)
		}
		levels = append(levels, above)
	}
	// Divide top-down. The datacenter root divides among the highest
	// level's groups, each group among its children, down to leaves.
	grants := []float64{budget}
	for li := len(levels) - 1; li >= 0; li-- {
		below := levels[li]
		if li == len(levels)-1 {
			// Top level: one parent (the datacenter) over every group the
			// level cap left — however many that is — in a single divide.
			grants = divide(grants[0], below)
			continue
		}
		next := make([]float64, 0, len(below))
		gi := 0
		for i := 0; i < len(below); i += cascadeFanout {
			end := min(i+cascadeFanout, len(below))
			next = append(next, divide(grants[gi], below[i:end])...)
			gi++
		}
		grants = next
	}
	return grants
}

// Rebalance cascades budget down the tree and applies each attached
// leaf's grant through its manager. Leaves whose grant shrinks (at or
// below their current enabled desired sum) apply before leaves whose
// grant grows, so — combined with each manager's own decreases-first
// push order — the tree-wide desired sum never transiently exceeds
// max(previous sum, budget) mid-sweep. Apply errors (unreachable
// nodes, a leaf that crashed between summary and apply) are joined and
// returned; the desired state those applies recorded still reconciles
// when the nodes return.
func (t *Tree) Rebalance(budget float64) (CascadeResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	res := CascadeResult{Budget: budget, Leaves: make(map[string]float64)}
	type member struct {
		ls    *leafState
		sum   demandSummary
		nodes []string
	}
	// Attached leaves in name order — the deterministic child order the
	// whole cascade inherits.
	var members []member
	for _, name := range t.memberNames() {
		ls := t.leaves[name]
		if ls.mgr == nil {
			continue
		}
		var sum demandSummary
		sum.min, sum.want, sum.max = ls.mgr.DemandSummary()
		members = append(members, member{ls: ls, sum: sum})
	}
	if len(members) == 0 {
		t.budget, t.infeasible = budget, false
		return res, errors.Join(t.persist())
	}
	for _, name := range t.nodeNames() {
		owner := t.owners[name]
		for i := range members {
			if members[i].ls.name == owner {
				members[i].nodes = append(members[i].nodes, name)
				break
			}
		}
	}

	summaries := make([]demandSummary, len(members))
	var minSum float64
	for i, m := range members {
		summaries[i] = m.sum
		minSum += m.sum.min
	}
	res.Infeasible = budget < minSum
	grants := cascade(budget, summaries)
	if res.Infeasible {
		// Cannot fit above the platform floors: pin every shard to its
		// minimums and say so, rather than pushing caps below what the
		// plants can honour.
		for i, m := range members {
			grants[i] = m.sum.min
		}
	}
	if t.BreakAggregator {
		// Self-test sabotage: a cascade that over-allocates at an
		// internal level. tree_budget_conserved must catch this.
		for i := range grants {
			grants[i] *= 1.5
		}
	}

	// Shrinking leaves first: see the method comment.
	order := make([]int, 0, len(members))
	for i, m := range members {
		if len(m.nodes) > 0 && grants[i] <= m.ls.mgr.DesiredCapSum()+1e-9 {
			order = append(order, i)
		}
	}
	for i, m := range members {
		if len(m.nodes) > 0 && grants[i] > m.ls.mgr.DesiredCapSum()+1e-9 {
			order = append(order, i)
		}
	}

	var errs []error
	for _, i := range order {
		m := members[i]
		if _, err := m.ls.mgr.ApplyBudget(grants[i], m.nodes); err != nil {
			errs = append(errs, err)
		}
		res.Applied++
	}
	for i, m := range members {
		m.ls.budget = grants[i]
		m.ls.infeasible = res.Infeasible
		res.Leaves[m.ls.name] = grants[i]
	}
	t.budget, t.infeasible = budget, res.Infeasible
	t.rebalances++
	ev := telemetry.Event{Kind: telemetry.EvShardRebalance, Watts: budget, N: int64(res.Applied)}
	if res.Infeasible {
		ev.Err = "infeasible"
	}
	t.trace.Append(ev)
	errs = append(errs, t.persist())
	return res, errors.Join(errs...)
}

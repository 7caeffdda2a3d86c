package shard

import (
	"errors"
	"fmt"
	"math"

	"nodecap/internal/dcm"
	"nodecap/internal/telemetry"
)

// The aggregator divides the datacenter budget once, flat over the
// attached leaves, under dcm.Divide — the law each leaf's manager then
// uses to divide its grant over its nodes. A leaf is seen only through
// its demand summary (Σ platform minimum, Σ demand, Σ platform
// maximum). Conservation is the law's: the leaf grants never sum past
// the budget, except when the budget is below the platform minimums —
// then every leaf is pinned to its minimums and the allocation is
// flagged infeasible rather than issuing caps the plants cannot honour.

// demandSummary is one leaf's aggregated demand.
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

// divide grants budget across leaves in input order: each leaf bids its
// demand above its minimums, saturating at min(want, max).
func divide(budget float64, leaves []demandSummary) (grants []float64, feasible bool) {
	claims := make([]dcm.Claim, len(leaves))
	for i, s := range leaves {
		claims[i] = dcm.Claim{Min: s.min, Max: s.max, Want: min(max(s.want, s.min), s.max), Base: s.min, Weight: 1}
	}
	return dcm.Divide(budget, claims)
}

// Rebalance divides budget over the attached leaves and applies each
// leaf's grant through its manager. Leaves whose grant shrinks (at or
// below their current enabled desired sum) apply before leaves whose
// grant grows, so — combined with each manager's own decreases-first
// push order — the tree-wide desired sum never transiently exceeds
// max(previous sum, budget) mid-sweep. Apply errors (unreachable
// nodes, a leaf that crashed between summary and apply) are joined and
// returned; the desired state those applies recorded still reconciles
// when the nodes return.
func (t *Tree) Rebalance(budget float64) (CascadeResult, error) {
	if math.IsNaN(budget) || math.IsInf(budget, 0) {
		return CascadeResult{}, fmt.Errorf("shard: budget %v W is not finite", budget)
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	res := CascadeResult{Budget: budget, Leaves: make(map[string]float64)}
	type member struct {
		ls    *leafState
		nodes []string
	}
	// Attached leaves in name order — the deterministic order the
	// division's spare pass inherits.
	var members []member
	var sums []demandSummary
	for _, name := range t.memberNames() {
		ls := t.leaves[name]
		if ls.mgr == nil {
			continue
		}
		var sum demandSummary
		sum.min, sum.want, sum.max = ls.mgr.DemandSummary()
		members = append(members, member{ls: ls})
		sums = append(sums, sum)
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

	// Below the platform minimums every leaf is pinned to its own, and
	// the pass says so.
	grants, feasible := divide(budget, sums)
	res.Infeasible = !feasible
	if t.BreakAggregator {
		// Self-test sabotage: a division that over-allocates.
		// tree_budget_conserved must catch this.
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

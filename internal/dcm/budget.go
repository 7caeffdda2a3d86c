package dcm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"nodecap/internal/dcm/store"
	"nodecap/internal/telemetry"
)

// Allocation is one node's share of a group budget.
type Allocation struct {
	Name     string
	CapWatts float64
}

// demand is one node's input to waterfill.
type demand struct {
	name     string
	want     float64 // recent average power + headroom
	min, max float64 // platform cap range
	// weight scales the node's claim on contested budget (0 means 1):
	// shares go demand×weight-proportionally, so a high-tier serving
	// node outbids batch nodes without inflating its actual demand.
	weight float64
}

// AllocateBudget divides budgetWatts across the named nodes under
// Divide, each node bidding its recent demand within its platform's
// feasible cap range. Every node is granted at least its platform
// minimum (a cap below the floor cannot be honoured and only burns
// performance — the paper's 120 W rows).
//
// An unreachable node whose last good exchange is older than
// StaleAfter is granted only its platform minimum: its frozen
// Last.AverageWatts is ghost demand that would otherwise keep stealing
// budget from live nodes.
//
// It fails when the budget cannot cover the platform minimums.
//
// Node weights default to each node's tier (TierHigh counts
// DefaultHighTierWeight, TierLow counts 1); AllocateBudgetWeighted
// accepts explicit overrides.
func (m *Manager) AllocateBudget(budgetWatts float64, names []string) ([]Allocation, error) {
	return m.AllocateBudgetWeighted(budgetWatts, names, nil)
}

// AllocateBudgetWeighted is AllocateBudget with explicit per-node
// priority weights. A node missing from weights (or any node, when
// weights is nil) falls back to its tier's default weight. Weights
// must be positive.
func (m *Manager) AllocateBudgetWeighted(budgetWatts float64, names []string, weights map[string]float64) ([]Allocation, error) {
	if math.IsNaN(budgetWatts) || math.IsInf(budgetWatts, 0) {
		return nil, fmt.Errorf("dcm: budget %v W is not finite", budgetWatts)
	}
	if err := CheckGroup(names); err != nil {
		return nil, err
	}
	staleAfter := m.StaleAfter
	if staleAfter <= 0 {
		staleAfter = DefaultStaleAfter
	}
	for name, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("dcm: non-positive weight %v for node %q", w, name)
		}
	}
	// The manager's clock, not time.Now(): staleness verdicts must be a
	// function of injected time so replayed runs are bit-identical.
	now := m.wallNow()
	demands := make([]demand, 0, len(names))
	m.mu.Lock()
	for _, name := range names {
		n, ok := m.nodes[name]
		if !ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("dcm: unknown node %q", name)
		}
		stale := !n.status.Reachable &&
			(n.status.LastOKAt.IsZero() || now.Sub(n.status.LastOKAt) > staleAfter)
		d := demand{
			name: name, want: n.demandWatts(),
			min: n.status.MinCapWatts, max: n.status.MaxCapWatts,
			weight: tierWeight(n.status.Tier),
		}
		if w, ok := weights[name]; ok {
			d.weight = w
		}
		if stale {
			// Pin the grant to the platform minimum: ceiling as well as
			// floor, so surplus budget cannot spill back into a node
			// that cannot even be told about it.
			d.want = d.min
			d.max = d.min
		}
		demands = append(demands, d)
	}
	m.mu.Unlock()
	return waterfill(budgetWatts, demands)
}

// CheckGroup refuses a budget group that names a node twice: the node
// would claim its share twice, and its minimum too. AllocateBudget
// checks every group; a daemon calls this to refuse a bad group at
// start rather than on every balance tick.
func CheckGroup(names []string) error {
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return fmt.Errorf("dcm: node %q named twice in the budget group", sorted[i])
		}
	}
	return nil
}

// demandWatts is the per-node demand rule a node's bid and its leaf's
// DemandSummary share: the recent average power plus 5 % headroom, so a
// fitting node is not throttled, or the platform maximum while the node
// has no sample. Callers hold m.mu.
func (n *managedNode) demandWatts() float64 {
	want := n.status.Last.AverageWatts
	if want <= 0 {
		want = n.status.MaxCapWatts
	}
	return want * 1.05
}

// DemandSummary sums the registered nodes' platform minimums, demands
// (demandWatts, floored at the node's minimum) and platform maximums,
// in name order so the sums repeat bit for bit — what the aggregator's
// division needs from a leaf, without copying the fleet as Nodes does.
func (m *Manager) DemandSummary() (minWatts, wantWatts, maxWatts float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.sortedLocked() {
		minWatts += n.status.MinCapWatts
		maxWatts += n.status.MaxCapWatts
		wantWatts += max(n.demandWatts(), n.status.MinCapWatts)
	}
	return minWatts, wantWatts, maxWatts
}

// ApplyBudget allocates and pushes the resulting caps. A failed push
// does not stop the sweep — the remaining nodes still get their caps
// (and the failed node's desired state is recorded, so reconciliation
// re-pushes it when the node returns); all push failures are joined
// into the returned error.
//
// Caps are pushed decreases-first: nodes whose new cap is at or below
// their current contribution are journaled and pushed before nodes
// whose cap rises. Any prefix of the push sequence then sums to at
// most the budget, so a crash (or partition) mid-sweep can never
// freeze the fleet in an over-budget state — shrinking one node's
// share before growing another's is the only order for which that
// holds. The returned slice is in push order.
func (m *Manager) ApplyBudget(budgetWatts float64, names []string) ([]Allocation, error) {
	return m.ApplyBudgetWeighted(budgetWatts, names, nil)
}

// ApplyBudgetWeighted is ApplyBudget with explicit per-node priority
// weights (see AllocateBudgetWeighted).
func (m *Manager) ApplyBudgetWeighted(budgetWatts float64, names []string, weights map[string]float64) ([]Allocation, error) {
	m.mu.Lock()
	standby := m.role == RoleStandby
	m.mu.Unlock()
	if standby {
		return nil, ErrNotLeader
	}
	allocs, err := m.AllocateBudgetWeighted(budgetWatts, names, weights)
	if err != nil {
		return nil, err
	}

	ordered := m.PushOrder(allocs)
	var errs []error
	for _, a := range ordered {
		if err := m.SetNodeCap(a.Name, a.CapWatts); err != nil {
			errs = append(errs, err)
		}
	}
	m.mu.Lock()
	m.tel.budgetReallocs.Inc()
	m.tel.trace.Append(telemetry.Event{
		Kind: telemetry.EvBudgetRealloc, Watts: budgetWatts, N: int64(len(ordered)),
	})
	m.mu.Unlock()
	return ordered, errors.Join(errs...)
}

// PushOrder is the order ApplyBudget pushes allocs in: allocations at
// or below the node's current enabled desired cap (its contribution to
// the enforced total) first, then raises and first-time caps.
func (m *Manager) PushOrder(allocs []Allocation) []Allocation {
	lowers := make([]bool, len(allocs))
	m.mu.Lock()
	for i, a := range allocs {
		var contribution float64
		if n, ok := m.nodes[a.Name]; ok && n.haveDesired && n.desired.Enabled {
			contribution = n.desired.CapWatts
		}
		lowers[i] = a.CapWatts <= contribution
	}
	m.mu.Unlock()
	ordered := make([]Allocation, 0, len(allocs))
	for _, first := range []bool{true, false} {
		for i, a := range allocs {
			if lowers[i] == first {
				ordered = append(ordered, a)
			}
		}
	}
	return ordered
}

// StartAutoBalance re-divides budgetWatts across the named nodes every
// interval, tracking demand as it shifts — the continuous mode the DCM
// product runs in. Re-arming while a loop is running replaces it: the
// old loop is stopped and the new budget takes over (an operator
// resizing the fleet's budget must not be silently ignored). Stop with
// StopAutoBalance (or Close).
func (m *Manager) StartAutoBalance(budgetWatts float64, names []string, interval time.Duration) {
	stop := make(chan struct{})
	m.mu.Lock()
	if m.stopBalance != nil {
		// Swap under one critical section so two concurrent re-arms
		// cannot both believe they own the loop.
		close(m.stopBalance)
	}
	m.stopBalance = stop
	m.mu.Unlock()

	// Journal the budget so a restarted manager can re-arm it (see
	// RestoredBudget); failures are non-fatal — the balance loop still
	// runs, it just will not survive a restart.
	_ = m.journalBudget(&store.BudgetRecord{
		Watts: budgetWatts, Group: names, Interval: interval,
	})

	m.pollWG.Add(1)
	go func() {
		defer m.pollWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.Poll()
				// Allocation failures (a node went away, budget became
				// infeasible) leave the previous caps standing; the
				// next tick retries.
				_, _ = m.ApplyBudget(budgetWatts, names)
			}
		}
	}()
}

// StopAutoBalance halts the rebalancing loop and clears the journaled
// budget so a restart does not resurrect it. (Close stops the loop
// without clearing the journal — a shut-down manager's budget is
// still its intent, and the restarted daemon re-arms it via
// RestoredBudget.)
func (m *Manager) StopAutoBalance() {
	if m.stopBalanceLoop() {
		_ = m.journalBudget(nil)
	}
}

// stopBalanceLoop halts the loop; reports whether one was running.
func (m *Manager) stopBalanceLoop() bool {
	m.mu.Lock()
	stop := m.stopBalance
	m.stopBalance = nil
	m.mu.Unlock()
	if stop == nil {
		return false
	}
	close(stop)
	return true
}

// Claim is one party to a budget division: a node under its manager,
// or a leaf under the aggregator.
type Claim struct {
	Min, Max float64 // the grant's range
	// Want is where the grant saturates (at most Max). Contested watts
	// go in proportion to (Want−Base)×Weight: a node bids its whole
	// demand (Base 0); a leaf, whose nodes' minimums are granted first,
	// bids only its demand above them (Base = Min).
	Want, Base, Weight float64
}

// Divide is the one budget-division law. Every claim first gets its
// Min; the rest of the budget goes out in proportion to the bids, each
// grant saturating at min(Want, Max) and returning its excess to the
// pool for the next pass; watts still spare then raise grants toward
// Max in input order. When the budget does not cover the minimums the
// grants are the minimums and feasible is false.
func Divide(budget float64, claims []Claim) (grants []float64, feasible bool) {
	grants = make([]float64, len(claims))
	active := make([]int, len(claims))
	var minSum float64
	for i, c := range claims {
		grants[i], active[i] = c.Min, i
		minSum += c.Min
	}
	if budget < minSum {
		return grants, false
	}
	remaining := budget - minSum
	for remaining > 1e-9 && len(active) > 0 {
		var bidSum float64
		for _, i := range active {
			bidSum += (claims[i].Want - claims[i].Base) * claims[i].Weight
		}
		if bidSum <= 0 {
			break
		}
		next, distributed := active[:0], false
		for _, i := range active {
			c := claims[i]
			ceiling := min(c.Want, c.Max)
			room := ceiling - grants[i]
			if room <= 0 {
				continue
			}
			if give := min(remaining*(c.Want-c.Base)*c.Weight/bidSum, room); give > 0 {
				grants[i] += give
				distributed = true
			}
			if grants[i] < ceiling-1e-9 {
				next = append(next, i)
			}
		}
		var granted float64
		for _, g := range grants {
			granted += g
		}
		remaining, active = budget-granted, next
		if !distributed {
			break
		}
	}
	for i, c := range claims {
		if remaining <= 1e-9 {
			break
		}
		if room := c.Max - grants[i]; room > 0 {
			give := min(remaining, room)
			grants[i] += give
			remaining -= give
		}
	}
	return grants, true
}

// waterfill divides budget over the nodes' demands under Divide.
//
// The input is canonicalized to name order first, so the result is a
// pure function of the demand *set*: both the iterative rounding drift
// and the spare-budget pass would otherwise leak the caller's argument
// order into the grants, and two managers balancing the same group
// from differently-ordered configs would push different caps.
func waterfill(budget float64, demands []demand) ([]Allocation, error) {
	if len(demands) == 0 {
		return nil, fmt.Errorf("dcm: empty node group")
	}
	demands = append([]demand(nil), demands...)
	sort.Slice(demands, func(i, j int) bool { return demands[i].name < demands[j].name })
	claims := make([]Claim, len(demands))
	for i, d := range demands {
		if d.min < 0 || d.max < d.min {
			return nil, fmt.Errorf("dcm: node %q has invalid cap range [%v, %v]", d.name, d.min, d.max)
		}
		claims[i] = Claim{Min: d.min, Max: d.max, Want: d.want, Weight: d.weight}
		if d.weight <= 0 { // unset in direct test callers
			claims[i].Weight = 1
		}
	}
	grants, feasible := Divide(budget, claims)
	if !feasible {
		var minSum float64
		for _, g := range grants {
			minSum += g
		}
		return nil, fmt.Errorf("dcm: budget %.1f W below platform minimums %.1f W", budget, minSum)
	}
	out := make([]Allocation, len(demands))
	for i, d := range demands {
		out[i] = Allocation{Name: d.name, CapWatts: grants[i]}
	}
	return out, nil
}

package dcm

import (
	"errors"
	"fmt"
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

// demand is the input to the water-filling allocator.
type demand struct {
	name     string
	want     float64 // recent average power + headroom
	min, max float64 // platform cap range
	// weight scales the node's claim on contested budget (0 means 1):
	// shares go demand×weight-proportionally, so a high-tier serving
	// node outbids batch nodes without inflating its actual demand.
	weight float64
}

// AllocateBudget divides budgetWatts across the named nodes in
// proportion to their recent demand, clamped to each platform's
// feasible cap range, by iterative water-filling:
//
//  1. Every node is granted at least its platform minimum (a cap below
//     the floor cannot be honoured and only burns performance — the
//     paper's 120 W rows).
//  2. Remaining budget is distributed demand-proportionally; nodes
//     that saturate their demand or platform maximum return the excess
//     to the pool, which is re-divided among the rest.
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

// demandWatts is the per-node demand rule the waterfill and the budget
// cascade share: the recent average power plus 5 % headroom, so a
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
// in name order so the sums repeat bit for bit — what a budget cascade
// needs from a leaf, without copying the fleet as Nodes does.
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

	// A node's current contribution to the enforced total is its
	// enabled desired cap, or zero when it has none.
	contribution := make(map[string]float64, len(allocs))
	m.mu.Lock()
	for _, a := range allocs {
		if n, ok := m.nodes[a.Name]; ok && n.haveDesired && n.desired.Enabled {
			contribution[a.Name] = n.desired.CapWatts
		}
	}
	m.mu.Unlock()
	ordered := make([]Allocation, 0, len(allocs))
	for _, a := range allocs { // decreases (and no-ops) first
		if a.CapWatts <= contribution[a.Name] {
			ordered = append(ordered, a)
		}
	}
	for _, a := range allocs { // then increases and first-time caps
		if a.CapWatts > contribution[a.Name] {
			ordered = append(ordered, a)
		}
	}

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

// waterfill implements the allocation; exposed separately for direct
// testing.
//
// The input is canonicalized to name order before any distribution, so
// the result is a pure function of the demand *set*: both the
// iterative rounding drift and the spare-budget pass would otherwise
// leak the caller's argument order into the grants, and two managers
// balancing the same group from differently-ordered configs would
// push different caps.
func waterfill(budget float64, demands []demand) ([]Allocation, error) {
	if len(demands) == 0 {
		return nil, fmt.Errorf("dcm: empty node group")
	}
	demands = append([]demand(nil), demands...)
	sort.Slice(demands, func(i, j int) bool { return demands[i].name < demands[j].name })
	var minSum float64
	for _, d := range demands {
		if d.min < 0 || d.max < d.min {
			return nil, fmt.Errorf("dcm: node %q has invalid cap range [%v, %v]", d.name, d.min, d.max)
		}
		minSum += d.min
	}
	if budget < minSum {
		return nil, fmt.Errorf("dcm: budget %.1f W below platform minimums %.1f W", budget, minSum)
	}

	grant := make(map[string]float64, len(demands))
	for _, d := range demands {
		grant[d.name] = d.min
	}
	remaining := budget - minSum

	// Iteratively hand out the pool demand×weight-proportionally; a
	// node's grant saturates at min(want, max). Weights shape who wins
	// contested watts, never how many watts a node can absorb.
	active := append([]demand(nil), demands...)
	for remaining > 1e-9 && len(active) > 0 {
		var wantSum float64
		for _, d := range active {
			wantSum += d.want * weightOf(d)
		}
		if wantSum <= 0 {
			break
		}
		next := active[:0]
		distributed := false
		for _, d := range active {
			share := remaining * d.want * weightOf(d) / wantSum
			ceiling := d.want
			if d.max < ceiling {
				ceiling = d.max
			}
			room := ceiling - grant[d.name]
			if room <= 0 {
				continue
			}
			give := share
			if give > room {
				give = room
			}
			if give > 0 {
				grant[d.name] += give
				distributed = true
			}
			if grant[d.name] < ceiling-1e-9 {
				next = append(next, d)
			}
		}
		var granted float64
		for _, d := range demands {
			granted += grant[d.name]
		}
		remaining = budget - granted
		active = next
		if !distributed {
			break
		}
	}
	// Spare budget (everyone satisfied): raise caps toward platform
	// maximums so nobody is throttled needlessly. Canonical (name)
	// order, established above.
	if remaining > 1e-9 {
		for i := range demands {
			d := demands[i]
			room := d.max - grant[d.name]
			if room <= 0 {
				continue
			}
			give := remaining
			if give > room {
				give = room
			}
			grant[d.name] += give
			remaining -= give
			if remaining <= 1e-9 {
				break
			}
		}
	}

	out := make([]Allocation, 0, len(demands))
	for _, d := range demands { // already in name order
		out = append(out, Allocation{Name: d.name, CapWatts: grant[d.name]})
	}
	return out, nil
}

// weightOf reads a demand's weight, defaulting zero to 1 so direct
// waterfill callers (tests) need not set it.
func weightOf(d demand) float64 {
	if d.weight <= 0 {
		return 1
	}
	return d.weight
}

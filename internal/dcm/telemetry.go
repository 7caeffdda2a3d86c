package dcm

import (
	"nodecap/internal/telemetry"
)

// exchangeBuckets resolve per-exchange BMC latency, which runs
// microseconds in simulation and up to seconds against a sick BMC —
// far finer at the bottom than DefSecondsBuckets.
var exchangeBuckets = []float64{
	1e-6, 1e-5, 1e-4, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5,
}

// managerTelemetry holds the manager's pre-resolved metric handles and
// trace sink. All fields are nil until SetTelemetry; every use is
// nil-safe, so an uninstrumented manager pays only a nil check.
type managerTelemetry struct {
	trace *telemetry.Trace

	capPushes       *telemetry.Counter
	capPushFailures *telemetry.Counter
	drifts          *telemetry.Counter
	reconciles      *telemetry.Counter
	backoffs        *telemetry.Counter
	redials         *telemetry.Counter
	polls           *telemetry.Counter
	budgetReallocs  *telemetry.Counter
	leaderChanges   *telemetry.Counter
	fencedPushes    *telemetry.Counter

	// Gray-failure defense (DESIGN.md §12).
	breakerOpens  *telemetry.Counter
	breakerCloses *telemetry.Counter
	quarantines   *telemetry.Counter
	sheds         *telemetry.Counter
	busySkips     *telemetry.Counter
	hedges        *telemetry.Counter
	lanePushes    *telemetry.Counter

	nodes          *telemetry.Gauge
	reachable      *telemetry.Gauge
	historySamples *telemetry.Gauge

	pollSeconds     *telemetry.Histogram
	exchangeSeconds *telemetry.Histogram
}

// SetTelemetry wires a metrics registry and decision trace into the
// manager (either may be nil). Call before OpenStateDir so the store's
// journal metrics are wired too; a later OpenStateDir picks the sinks
// up regardless. Metric names are documented in DESIGN.md §9.
func (m *Manager) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Trace) {
	m.mu.Lock()
	m.telReg = reg
	m.tel = managerTelemetry{
		trace:           tr,
		capPushes:       reg.Counter("dcm_cap_pushes_total"),
		capPushFailures: reg.Counter("dcm_cap_push_failures_total"),
		drifts:          reg.Counter("dcm_drifts_total"),
		reconciles:      reg.Counter("dcm_reconciles_total"),
		backoffs:        reg.Counter("dcm_backoffs_armed_total"),
		redials:         reg.Counter("dcm_redials_total"),
		polls:           reg.Counter("dcm_polls_total"),
		budgetReallocs:  reg.Counter("dcm_budget_reallocs_total"),
		leaderChanges:   reg.Counter("dcm_leader_changes_total"),
		fencedPushes:    reg.Counter("dcm_fenced_pushes_total"),
		breakerOpens:    reg.Counter("dcm_breaker_opens_total"),
		breakerCloses:   reg.Counter("dcm_breaker_closes_total"),
		quarantines:     reg.Counter("dcm_quarantines_total"),
		sheds:           reg.Counter("dcm_sheds_total"),
		busySkips:       reg.Counter("dcm_busy_skips_total"),
		hedges:          reg.Counter("dcm_hedged_pushes_total"),
		lanePushes:      reg.Counter("dcm_lane_pushes_total"),
		nodes:           reg.Gauge("dcm_nodes"),
		reachable:       reg.Gauge("dcm_nodes_reachable"),
		historySamples:  reg.Gauge("dcm_history_samples"),
		pollSeconds:     reg.Histogram("dcm_poll_seconds", telemetry.DefSecondsBuckets),
		exchangeSeconds: reg.Histogram("dcm_exchange_seconds", exchangeBuckets),
	}
	st := m.store
	m.mu.Unlock()
	if st != nil {
		st.SetTelemetry(reg, tr)
	}
}

// TraceEvents reads the manager's decision trace: the last `limit`
// events when since is 0, otherwise events with Seq >= since (the
// follow cursor), optionally filtered to one node. Nil without an
// attached trace.
func (m *Manager) TraceEvents(since uint64, node string, limit int) []telemetry.Event {
	m.mu.Lock()
	tr := m.tel.trace
	m.mu.Unlock()
	if tr == nil {
		return nil
	}
	if since == 0 {
		if limit <= 0 {
			limit = 256
		}
		return tr.Tail(limit, node)
	}
	return tr.Since(since, node, limit)
}

// updateFleetGauges refreshes the node-count gauges and the retained
// history size (32 bytes a sample; see history). Callers must NOT hold
// m.mu.
func (m *Manager) updateFleetGauges() {
	m.mu.Lock()
	total, up, retained := len(m.nodes), m.reachable, m.historySamples
	tel := m.tel
	m.mu.Unlock()
	tel.nodes.Set(float64(total))
	tel.reachable.Set(float64(up))
	tel.historySamples.Set(float64(retained))
}

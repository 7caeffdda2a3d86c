// Package chaos is a deterministic chaos harness for the DCM↔BMC
// control plane: it drives a simulated fleet of capped nodes through a
// seeded schedule of composed failures — network partitions (including
// asymmetric ones), sensor storms, manager crash-restarts with torn
// journal writes, and node churn under load — while a fleet-wide
// invariant checker asserts, after every control tick, the properties
// the paper's architecture is supposed to guarantee:
//
//  1. cap_respected — no node's sustained true power exceeds the cap
//     its BMC has applied, beyond the settle tolerance, while the
//     sensor is honest and the controller is not in fail-safe. A cap
//     below the platform floor is exempt: the paper's 120 W rows pin
//     at the floor by design.
//  2. budget_conserved — the sum of the manager's enabled desired
//     caps never exceeds the group budget, including across
//     crash-restart (every journal prefix is within budget because
//     ApplyBudget pushes decreases first) and stale-node repinning.
//  3. no_failsafe_speedup — while the controller distrusts its sensor
//     the plant never steps a P-state up, and never runs faster than
//     the configured fail-safe floor.
//  4. recovery_integrity — after every injected crash, the state the
//     reopened store recovers equals the fold of every journaled
//     operation that survived the torn cut (tracked by an independent
//     shadow model).
//  5. single_writer — at most one fencing epoch ever actuates a node's
//     plant at a time, and never backwards: once a push carrying epoch
//     E lands, no push with a lower epoch lands after it. A deposed
//     leader duelling the fence must lose (HA scenarios).
//  6. replica_convergence — at every failover, the state the promoted
//     standby recovers from its (possibly torn) replicated journal
//     equals the fold of the primary's journaled history up to the
//     replication cursor minus the torn tail (HA scenarios).
//  7. cap_push_bounded — a cap allocated to a clean-link node is
//     applied by that node's BMC within CapPushBoundTicks, however
//     much of the rest of the fleet is slow or flapping (solo
//     scenarios; the priority-lane guarantee).
//  8. no_starvation — every clean-link node's power reading is
//     fetched at least once every StarvationRounds poll rounds:
//     breaker holds, brownout shedding and busy-skips may delay a
//     sample but never orphan a healthy node (solo scenarios).
//  9. tree_budget_conserved — in sharded scenarios, the sum of the
//     leaf managers' enabled desired caps (each node counted once,
//     under its current owner) never exceeds the datacenter budget,
//     at every tick including mid-handoff; when the budget sits below
//     the platform minimums the bound is the minimum sum instead.
//  10. single_owner — in sharded scenarios, every cap push a plant
//     admits was carried by the node's CURRENT owning leaf: each
//     node's fence watermark advances under exactly one leaf. A
//     deposed or isolated leaf's pushes must be refused by the
//     plant-side fence, not merely expected to stop.
//
// Determinism: a Scenario is a pure function of (name, seed, ticks,
// nodes). All randomness comes from seeded math/rand streams — the
// schedule generator and the per-node sensor-noise/fault streams —
// and the manager is configured so its own jittered timers never draw
// randomness (1 ns delays skip the jitter draw). The manager's wall
// clock is the fleet's injected deterministic counter, so staleness
// verdicts, backoff gates and sample stamps are a function of the
// clock-read sequence rather than real time, and the control plane —
// solo, HA pair or shard tree, all built as leaves of replicated
// managers — steps in one fixed per-tick order. Running the same
// in-process scenario twice yields bit-identical verdict JSON, failing
// verdicts included: violation messages render no pointers. Wire
// mode (real TCP sockets through faults.Transport) exercises the same
// schedule but is NOT bit-deterministic: socket timing feeds the
// transport's fault stream.
package chaos

import (
	"fmt"
	"os"
	"sort"
	"time"

	"nodecap/internal/dcm/store"
	"nodecap/internal/telemetry"
)

// Event kinds. Node-scoped kinds target Event.Node; crash/restart act
// on the manager globally.
const (
	// EvPartition blackholes the manager↔node link both ways.
	EvPartition = "partition"
	// EvPartitionAsym delivers requests but loses responses: the node
	// applies commands the manager believes failed.
	EvPartitionAsym = "partition-asym"
	// EvHeal restores the node's link.
	EvHeal = "heal"
	// EvSensorStorm makes the node's power sensor drop every reading
	// (the BMC must ride through on fail-safe).
	EvSensorStorm = "sensor-storm"
	// EvSensorHeal restores the node's sensor.
	EvSensorHeal = "sensor-heal"
	// EvCrash kills the manager without graceful shutdown and tears
	// the journal at a byte offset derived from Event.TornBytes.
	EvCrash = "crash"
	// EvRestart reopens the state dir with a fresh manager and runs
	// the recovery-integrity check.
	EvRestart = "restart"
	// EvRemoveNode unregisters the node mid-sweep (the node machine
	// keeps running — capping is out-of-band).
	EvRemoveNode = "remove-node"
	// EvAddNode (re-)registers the node.
	EvAddNode = "add-node"

	// Gray-failure event kinds: the node stays alive but its link
	// degrades — the failure mode the breaker/priority-lane layer
	// (DESIGN §12) defends against.

	// EvSlow makes every IPMI exchange with the node take
	// Event.LatencyUS µs of simulated time (±25 % seeded jitter per
	// call) — slow-but-alive, answering correctly just very late.
	EvSlow = "slow"
	// EvSlowHeal restores the node's exchange latency.
	EvSlowHeal = "slow-heal"
	// EvFlap makes the node's link cycle up/down with a period of
	// Event.Period ticks (down half of each period) — the breaker must
	// quarantine it rather than pay an endless probe tax.
	EvFlap = "flap"
	// EvFlapHeal stops the flapping and leaves the link up.
	EvFlapHeal = "flap-heal"

	// HA event kinds (require Scenario.HA; they act on the manager
	// pair, not a node).

	// EvKillPrimary crashes the acting leader mid-budget-push — half
	// the decreases-first sweep journaled and pushed — and tears its
	// journal at Event.TornBytes. The standby takes over when the
	// lease runs out.
	EvKillPrimary = "kill-primary"
	// EvRevive restarts a killed member as a standby replica; it
	// resyncs from a full snapshot (generation zero HELLO).
	EvRevive = "revive"
	// EvLeaseStall pauses the leader's lease renewals without stopping
	// its manager: the stalled process keeps actuating while the
	// standby takes over — the split-brain duel the node-side fence
	// must win.
	EvLeaseStall = "lease-stall"
	// EvReplDown partitions the replication link (manager↔node links
	// stay up); the standby's cursor freezes where it was.
	EvReplDown = "repl-down"
	// EvReplHeal restores the replication link; the session resumes
	// from the standby's cursor (or degrades to a snapshot).
	EvReplHeal = "repl-heal"
	// EvReplTear arms a torn-tail cut of the standby's replicated
	// journal, applied at its next promotion (the replica's crash).
	EvReplTear = "repl-tear"

	// Sharded-tree event kinds (require Scenario.Shards > 0; they act
	// on leaf managers and the aggregator, not a node).

	// EvLeafIsolate partitions leaf Event.Leaf away from the
	// aggregator: the tree seizes its shard with fenced handoff while
	// the isolated manager keeps actuating on stale registrations and a
	// stale budget — the duel the plant-side fence must win.
	EvLeafIsolate = "leaf-isolate"
	// EvLeafRejoin heals the leaf's aggregator link; the tree readmits
	// it (purging its stale state) and hands its ring share back.
	EvLeafRejoin = "leaf-rejoin"
	// EvLeafCrash kills leaf Event.Leaf's manager outright; the tree
	// seizes its shard.
	EvLeafCrash = "leaf-crash"
	// EvLeafRestart brings a crashed leaf back as a fresh process (new
	// state dir) and rejoins it to the tree.
	EvLeafRestart = "leaf-restart"
	// EvAggRestart restarts the aggregator from its journaled shard
	// map: ownership must be recovered exactly, live leaves
	// re-attached, dead ones seized.
	EvAggRestart = "agg-restart"
)

// Event is one scheduled fault (or recovery) in a scenario timeline.
type Event struct {
	Tick int    `json:"tick"`
	Kind string `json:"kind"`
	// Node indexes the target node for node-scoped kinds.
	Node int `json:"node,omitempty"`
	// TornBytes seeds the torn-write cut for EvCrash: the journal is
	// truncated at TornBytes modulo (journal length + 1), so a crash
	// can land mid-record, between records, or lose nothing.
	TornBytes int `json:"torn_bytes,omitempty"`
	// LatencyUS is EvSlow's per-exchange latency in simulated µs.
	LatencyUS int `json:"latency_us,omitempty"`
	// Period is EvFlap's up/down cycle length in ticks.
	Period int `json:"period,omitempty"`
	// Leaf indexes the target leaf manager for sharded event kinds.
	Leaf int `json:"leaf,omitempty"`
}

// Scenario is a reproducible chaos timeline. Identical scenarios
// (including Seed) replay identical schedules; in-process runs also
// produce bit-identical verdicts.
type Scenario struct {
	Name  string `json:"name"`
	Seed  int64  `json:"seed"`
	Ticks int    `json:"ticks"`
	Nodes int    `json:"nodes"`
	// BudgetWatts is the group budget rebalanced across registered
	// nodes; 0 means 140 W per node.
	BudgetWatts float64 `json:"budget_watts,omitempty"`
	// PollEvery / RebalanceEvery are in ticks; 0 means the defaults
	// (5 and 25).
	PollEvery      int     `json:"poll_every,omitempty"`
	RebalanceEvery int     `json:"rebalance_every,omitempty"`
	Events         []Event `json:"events"`

	// HA runs the control plane as a lease-coordinated primary/standby
	// pair with journal replication; enables the HA event kinds and
	// the single_writer / replica_convergence invariants. Incompatible
	// with Wire and with EvCrash/EvRestart (use EvKillPrimary and
	// EvRevive, which respect pair membership).
	HA bool `json:"ha,omitempty"`

	// Shards > 0 runs the control plane as a two-level sharded tree:
	// that many leaf managers own consistent-hash shards of the fleet
	// under a cascading budget aggregator (internal/shard). Enables the
	// sharded event kinds and the tree_budget_conserved / single_owner
	// invariants. Incompatible with HA, Wire, and EvCrash/EvRestart
	// (use the leaf/aggregator event kinds instead).
	Shards int `json:"shards,omitempty"`

	// BreakFailSafeFloor disables the fail-safe P-state floor in the
	// simulated plant (the plant creeps back up while the controller
	// distrusts its sensor). It exists to prove the invariant checker
	// detects real violations; see TestBrokenGuardCaught.
	BreakFailSafeFloor bool `json:"break_fail_safe_floor,omitempty"`

	// BreakFencing disables the stale-epoch fence in every simulated
	// node's IPMI server, so a deposed leader's pushes actuate the
	// plant. Exists to prove single_writer catches real split-brain;
	// see TestBrokenFencingCaught.
	BreakFencing bool `json:"break_fencing,omitempty"`

	// BreakReplication corrupts every node record crossing the
	// replication link (the replica applies and acknowledges skewed
	// caps). Exists to prove replica_convergence catches real
	// divergence; see TestBrokenReplicationCaught.
	BreakReplication bool `json:"break_replication,omitempty"`

	// BreakBreaker misconfigures the gray-failure defense two ways at
	// once: open breakers gate cap pushes (so a withheld cap ages past
	// its bound) and never grant half-open probes (so a healed node is
	// never sampled again). Exists to prove cap_push_bounded and
	// no_starvation both catch real regressions; see
	// TestBrokenBreakerCaught.
	BreakBreaker bool `json:"break_breaker,omitempty"`

	// BreakHandoff skips the fencing-epoch bump on shard migration, so
	// a deposed leaf keeps pushing at the epoch the new owner uses and
	// the plant admits both writers. Exists to prove single_owner
	// catches a broken handoff; see TestBrokenHandoffCaught.
	BreakHandoff bool `json:"break_handoff,omitempty"`

	// BreakAggregator makes the budget cascade over-allocate (1.5× per
	// leaf), violating tree-wide conservation. Exists to prove
	// tree_budget_conserved catches a broken aggregator; see
	// TestBrokenAggregatorCaught.
	BreakAggregator bool `json:"break_aggregator,omitempty"`

	// Wire runs the fleet over real TCP sockets through
	// faults.Transport instead of in-process frame dispatch. Slower
	// and not bit-deterministic; asymmetric partitions degrade to
	// symmetric ones.
	Wire bool `json:"wire,omitempty"`

	// StateDir overrides the directory holding every manager's state
	// dir (default: a fresh temp dir removed when Run returns).
	StateDir string `json:"-"`

	// Parallelism bounds the engine's tick shards: 0 selects
	// GOMAXPROCS, 1 forces the sequential pass. Verdicts are
	// bit-identical at every setting (the engine shards nodes into
	// contiguous ranges and merges trace events in node order), so
	// this is a throughput knob, not part of the scenario's identity —
	// hence excluded from the JSON form.
	Parallelism int `json:"-"`
}

// Verdict is the outcome of one scenario run. In-process verdicts are
// bit-identical across runs of the same scenario.
type Verdict struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`
	Ticks    int    `json:"ticks"`
	// SimSeconds is the simulated time covered (ticks × the BMC
	// control period).
	SimSeconds float64 `json:"sim_seconds"`

	Events        int `json:"events"`
	EventsApplied int `json:"events_applied"`
	Crashes       int `json:"crashes"`
	Restarts      int `json:"restarts"`
	// LostRecords counts journal records destroyed by torn cuts —
	// operations the recovered state is allowed (and required) to
	// have forgotten.
	LostRecords int `json:"lost_records"`

	// HA outcomes. Failovers counts standby promotions; FencedPushes
	// counts cap pushes nodes refused for carrying a stale epoch;
	// ReplicaLostRecords counts replicated-journal records destroyed
	// by torn cuts at promotion.
	Failovers          int    `json:"failovers,omitempty"`
	FencedPushes       uint64 `json:"fenced_pushes,omitempty"`
	ReplicaLostRecords int    `json:"replica_lost_records,omitempty"`

	// Sharded-tree outcomes. Shards echoes the scenario's leaf count;
	// Handoffs counts node ownership migrations (fenced handoffs);
	// LeafCrashes/LeafRestarts count leaf manager lifecycle events;
	// AggRestarts counts aggregator restarts from the journaled shard
	// map.
	Shards       int `json:"shards,omitempty"`
	Handoffs     int `json:"handoffs,omitempty"`
	LeafCrashes  int `json:"leaf_crashes,omitempty"`
	LeafRestarts int `json:"leaf_restarts,omitempty"`
	AggRestarts  int `json:"agg_restarts,omitempty"`

	// FailSafeEntries / SensorFaults aggregate the fleet's defensive
	// controller stats.
	FailSafeEntries uint64 `json:"fail_safe_entries"`
	SensorFaults    uint64 `json:"sensor_faults"`

	// Gray-failure defense outcomes (breaker trips, quarantines,
	// brownout sheds, busy-skips, priority-lane pushes).
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
	Quarantines  uint64 `json:"quarantines,omitempty"`
	Sheds        uint64 `json:"sheds,omitempty"`
	BusySkips    uint64 `json:"busy_skips,omitempty"`
	LanePushes   uint64 `json:"lane_pushes,omitempty"`

	// Checks counts how many times each invariant was asserted.
	Checks map[string]int `json:"checks"`
	// Violations lists the first violations found (bounded);
	// ViolationCount is the true total.
	Violations     []Violation `json:"violations"`
	ViolationCount int         `json:"violation_count"`
	Pass           bool        `json:"pass"`
}

// Violation is one invariant failure, captured with the trailing
// window of fleet control-decision trace events — the cap pushes,
// backoffs, fail-safe transitions, and budget reallocations that led
// up to it. In-process runs stamp events with the simulated tick only
// (no wall clock), so the window is bit-identical across replays.
type Violation struct {
	Msg   string            `json:"msg"`
	Trace []telemetry.Event `json:"trace,omitempty"`
}

// Defaults for Scenario zero fields.
const (
	DefaultPollEvery      = 5
	DefaultRebalanceEvery = 25
	DefaultBudgetPerNodeW = 140
)

// Run executes one scenario and returns its verdict. The error is for
// harness failures (bad scenario, state-dir I/O); invariant violations
// are reported in the verdict, not the error.
func Run(s Scenario) (Verdict, error) {
	if s.Ticks <= 0 || s.Nodes <= 0 {
		return Verdict{}, fmt.Errorf("chaos: scenario needs positive ticks and nodes (got %d, %d)", s.Ticks, s.Nodes)
	}
	if s.HA && s.Wire {
		return Verdict{}, fmt.Errorf("chaos: HA scenarios are in-process only (wire mode unsupported)")
	}
	if s.Shards > 0 {
		if s.HA {
			return Verdict{}, fmt.Errorf("chaos: sharded scenarios are incompatible with HA (the tree is its own availability story)")
		}
		if s.Wire {
			return Verdict{}, fmt.Errorf("chaos: sharded scenarios are in-process only (wire mode unsupported)")
		}
	}
	haKinds := map[string]bool{
		EvKillPrimary: true, EvRevive: true, EvLeaseStall: true,
		EvReplDown: true, EvReplHeal: true, EvReplTear: true,
	}
	leafKinds := map[string]bool{
		EvLeafIsolate: true, EvLeafRejoin: true, EvLeafCrash: true, EvLeafRestart: true,
	}
	for _, e := range s.Events {
		if e.Node < 0 || e.Node >= s.Nodes {
			return Verdict{}, fmt.Errorf("chaos: event %q at tick %d targets node %d outside [0,%d)", e.Kind, e.Tick, e.Node, s.Nodes)
		}
		if haKinds[e.Kind] && !s.HA {
			return Verdict{}, fmt.Errorf("chaos: event %q at tick %d requires an HA scenario", e.Kind, e.Tick)
		}
		if s.HA && (e.Kind == EvCrash || e.Kind == EvRestart) {
			return Verdict{}, fmt.Errorf("chaos: event %q at tick %d is for solo scenarios; HA uses %q/%q", e.Kind, e.Tick, EvKillPrimary, EvRevive)
		}
		if (leafKinds[e.Kind] || e.Kind == EvAggRestart) && s.Shards <= 0 {
			return Verdict{}, fmt.Errorf("chaos: event %q at tick %d requires a sharded scenario", e.Kind, e.Tick)
		}
		if leafKinds[e.Kind] && (e.Leaf < 0 || e.Leaf >= s.Shards) {
			return Verdict{}, fmt.Errorf("chaos: event %q at tick %d targets leaf %d outside [0,%d)", e.Kind, e.Tick, e.Leaf, s.Shards)
		}
		if s.Shards > 0 && (e.Kind == EvCrash || e.Kind == EvRestart) {
			return Verdict{}, fmt.Errorf("chaos: event %q at tick %d is for solo scenarios; sharded uses %q/%q", e.Kind, e.Tick, EvLeafCrash, EvLeafRestart)
		}
		if e.Kind == EvSlow && e.LatencyUS <= 0 {
			return Verdict{}, fmt.Errorf("chaos: event %q at tick %d needs a positive latency_us", e.Kind, e.Tick)
		}
		if e.Kind == EvFlap && e.Period <= 0 {
			return Verdict{}, fmt.Errorf("chaos: event %q at tick %d needs a positive period", e.Kind, e.Tick)
		}
	}
	pollEvery := s.PollEvery
	if pollEvery <= 0 {
		pollEvery = DefaultPollEvery
	}
	rebalanceEvery := s.RebalanceEvery
	if rebalanceEvery <= 0 {
		rebalanceEvery = DefaultRebalanceEvery
	}

	dir := s.StateDir
	if dir == "" {
		d, err := os.MkdirTemp("", "chaos-state-*")
		if err != nil {
			return Verdict{}, fmt.Errorf("chaos: %w", err)
		}
		defer os.RemoveAll(d)
		dir = d
	}

	f, err := newFleet(s, dir)
	if err != nil {
		return Verdict{}, err
	}
	defer f.stop()
	if err := f.registerAll(); err != nil {
		return Verdict{}, err
	}
	if s.HA {
		// Arm the continuous balancing mode so the budget is journaled
		// (and replicated): a promoted standby must re-arm it from its
		// restored state. The interval is far beyond the run, so the
		// loop's own ticker never fires — the run loop rebalances on
		// the deterministic tick cadence instead.
		group := f.group()
		f.leader().StartAutoBalance(f.budget, group, time.Hour)
		f.shadow = append(f.shadow, store.Record{
			Op: store.OpBudget, Budget: &store.BudgetRecord{Watts: f.budget, Group: group, Interval: time.Hour},
		})
	}

	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Tick < events[j].Tick })

	v := Verdict{
		Scenario:   s.Name,
		Seed:       s.Seed,
		Nodes:      s.Nodes,
		Ticks:      s.Ticks,
		SimSeconds: float64(s.Ticks) * controlPeriodSeconds,
		Events:     len(events),
	}
	iv := newInvariants(f)

	next := 0
	for tick := 0; tick < s.Ticks; tick++ {
		f.trace.SetTick(int64(tick))
		for next < len(events) && events[next].Tick <= tick {
			if err := f.applyEvent(events[next], iv, &v); err != nil {
				return Verdict{}, err
			}
			next++
		}
		f.applyFlaps(tick)
		// Nodes tick whether or not any manager is alive: capping is
		// out-of-band.
		f.eng.Tick(1)
		if err := f.step(tick, pollEvery, rebalanceEvery, iv, &v); err != nil {
			return Verdict{}, err
		}
		iv.checkTick(tick)
	}

	v.Checks = iv.checks
	v.Violations = iv.violations
	v.ViolationCount = iv.violationCount
	snap := f.reg.Snapshot()
	v.FencedPushes = snap.Counters["dcm_fenced_pushes_total"]
	v.Shards = s.Shards
	v.BreakerOpens = snap.Counters["dcm_breaker_opens_total"]
	v.Quarantines = snap.Counters["dcm_quarantines_total"]
	v.Sheds = snap.Counters["dcm_sheds_total"]
	v.BusySkips = snap.Counters["dcm_busy_skips_total"]
	v.LanePushes = snap.Counters["dcm_lane_pushes_total"]
	st := f.eng.Stats()
	v.FailSafeEntries = st.FailSafeEntries
	v.SensorFaults = st.SensorFaults
	v.Pass = v.ViolationCount == 0
	return v, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one metric; BENCHMARK.json lists the same names
// and units, which the smoke test checks.
type metricDef struct {
	name, unit string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; 0 on per-layer
	// metrics, which gate nothing.
	bound float64
}

// endToEnd are the gated metrics, the same on every workload. The
// failure ratio is not among them: the result line carries it as
// failed ÷ attempted (a gated metric may never read 0).
var endToEnd = []metricDef{
	{"op_ms_p50", "ms", 0.15},
	{"cpu_ms_per_op", "ms", 0.20},
	{"alloc_mb_per_op", "MB", 0.03},
	{"heap_live_mb", "MB", 0.05},
	{"setup_s", "s", 0.25},
}

// perLayer are the ungated metrics of the traced run. A metric reads 0
// on a workload whose path does not run that layer or its probe.
var perLayer = []metricDef{
	// paper_sweep: the node simulator.
	{"core.sweep_ms.stereo", "ms", 0},
	{"core.sweep_ms.sire", "ms", 0},
	{"machine.run_ms.stereo.base", "ms", 0},
	{"machine.run_ms.stereo.cap120", "ms", 0},
	{"machine.run_ms.sire.base", "ms", 0},
	{"machine.run_ms.sire.cap120", "ms", 0},
	{"machine.host_ns_per_sim_access", "ns", 0},
	{"machine.load_ns.l1", "ns", 0},
	{"machine.load_ns.l2", "ns", 0},
	{"machine.load_ns.l3", "ns", 0},
	{"machine.load_ns.dram", "ns", 0},
	{"machine.new_us", "us", 0},
	{"cache.access_ns.hit", "ns", 0},
	{"cache.access_ns.miss", "ns", 0},
	{"tlb.lookup_ns.hit", "ns", 0},
	{"tlb.lookup_ns.miss", "ns", 0},
	{"dram.access_ns", "ns", 0},
	{"bmc.tick_ns", "ns", 0},
	{"power.node_watts_ns", "ns", 0},
	{"workloads.stride_ms.uncapped", "ms", 0},
	{"workloads.stride_ms.cap120", "ms", 0},
	{"sim.stereo.slowdown_x.cap140", "x", 0},
	{"sim.stereo.slowdown_x.cap120", "x", 0},
	{"sim.sire.slowdown_x.cap140", "x", 0},
	{"sim.sire.slowdown_x.cap120", "x", 0},
	{"sim.stereo.l2_miss_x.cap120", "x", 0},
	{"sim.stereo.itlb_miss_x.cap120", "x", 0},
	{"sim.sire.itlb_miss_x.cap120", "x", 0},
	{"sim.stereo.freq_mhz.cap130", "MHz", 0},
	{"sim.floor_w", "W", 0},
	{"sim.accesses_per_op", "count", 0},
	{"sim.committed_per_op", "count", 0},
	// fleet_soak: the in-process control plane at fleet scale.
	{"fleet.tick_ms_per_op", "ms", 0},
	{"fleet.tick_ns_per_node", "ns", 0},
	{"fleet.tick_ns_per_node.parN", "ns", 0},
	{"fleet.tick_par_speedup_x", "x", 0},
	{"fleet.tick_allocs", "count", 0},
	{"fleet.new_ms", "ms", 0},
	{"fleet.settle_ticks_p50", "count", 0},
	{"fleet.settle_ticks_max", "count", 0},
	{"dcm.poll_ms_per_op", "ms", 0},
	{"dcm.poll_us_per_node.inproc", "us", 0},
	{"dcm.allocate_ms.n2500", "ms", 0},
	{"dcm.set_cap_us.n2500", "us", 0},
	{"dcm.nodes_ms.n2500", "ms", 0},
	{"dcm.add_node_us", "us", 0},
	{"shard.rebalance_ms_per_op", "ms", 0},
	{"shard.add_nodes_ms.n10000", "ms", 0},
	{"shard.ring_owner_ns", "ns", 0},
	{"store.apply_us", "us", 0},
	{"store.compact_ms.n2500", "ms", 0},
	{"store.records_per_op", "count", 0},
	{"store.open_replay_ms.n2500", "ms", 0},
	{"store.apply_sync_us", "us", 0},
	{"store.repl_us_per_record", "us", 0},
	{"chaos.verdict_ms.mixed", "ms", 0},
	{"chaos.verdict_ms.shard_handoff", "ms", 0},
	{"chaos.verdict_ms.solo2k", "ms", 0},
	{"pool.gang_dispatch_ns", "ns", 0},
	{"telemetry.counter_inc_ns", "ns", 0},
	{"telemetry.trace_append_ns", "ns", 0},
	// budget_push and poll_sweep: the control plane over the real wire.
	{"ipmi.exchange_us_p50", "us", 0},
	{"ipmi.exchange_us_p95", "us", 0},
	{"ipmi.exchanges_per_op", "count", 0},
	{"ipmi.tx_bytes_per_op", "bytes", 0},
	{"ipmi.rx_bytes_per_op", "bytes", 0},
	{"ipmi.frame_codec_ns", "ns", 0},
	{"ipmi.server_handle_ns", "ns", 0},
	{"ipmi.batch_poll24_us", "us", 0},
	{"ipmi.batch_set24_us", "us", 0},
	{"ipmi.dial_us", "us", 0},
	{"dcm.poll_ms_per_sweep.wire", "ms", 0},
	{"dcm.poll_us_per_node.wire", "us", 0},
	{"dcm.poll_self_ms", "ms", 0},
	{"dcm.cap_pushes_per_op", "count", 0},
	{"shard.rebalance_ms.wire", "ms", 0},
	{"shard.rebalance_self_ms", "ms", 0},
	{"nodeagent.poll_ms_p50", "ms", 0},
	{"nodeagent.do_ms_p50", "ms", 0},
	// The benchmark's own harness.
	{"driver.op_ms_p95", "ms", 0},
	{"driver.op_ms_iqr", "ms", 0},
	{"driver.ops", "count", 0},
	{"driver.self_pct", "%", 0},
	{"driver.fail_ratio", "ratio", 0},
	{"driver.peak_rss_mb", "MB", 0},
	{"driver.gomaxprocs", "count", 0},
	{"driver.calib_ms", "ms", 0},
	{"driver.calib_drift_pct", "%", 0},
	{"driver.trace_overhead_pct", "%", 0},
}

// exactMetrics must repeat bit for bit on equal seeds; -selfcheck
// asserts it.
var exactMetrics = []string{
	"sim.stereo.slowdown_x.cap140", "sim.stereo.slowdown_x.cap120",
	"sim.sire.slowdown_x.cap140", "sim.sire.slowdown_x.cap120",
	"sim.stereo.l2_miss_x.cap120", "sim.stereo.itlb_miss_x.cap120", "sim.sire.itlb_miss_x.cap120",
	"sim.stereo.freq_mhz.cap130", "sim.floor_w", "sim.accesses_per_op", "sim.committed_per_op",
	"ipmi.exchanges_per_op", "store.records_per_op", "dcm.cap_pushes_per_op",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value; 0 for a single reading
}

// metrics collects values against a declared list, so a name the list
// does not know is a bug caught on the first run.
type metrics struct {
	defs []metricDef
	vals map[string]metric
}

func newMetrics(defs []metricDef) *metrics {
	return &metrics{defs: defs, vals: make(map[string]metric, len(defs))}
}

func (m *metrics) set(name string, v float64, n int) {
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = metric{Value: v, Unit: d.unit, n: n}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// complete fills every declared but unset metric with 0.
func (m *metrics) complete() {
	for _, d := range m.defs {
		if _, ok := m.vals[d.name]; !ok {
			m.vals[d.name] = metric{Unit: d.unit}
		}
	}
}

func (m *metrics) table(w io.Writer, workload string) {
	for _, d := range m.defs {
		v := m.vals[d.name]
		fmt.Fprintf(w, "%-12s %-34s %16.6g %-6s n=%d\n", workload, d.name, v.Value, v.Unit, v.n)
	}
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r resultLine) String() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// quantile interpolates linearly between order statistics, like
// Python's statistics.quantiles(method="inclusive").
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

package main

// The per-layer metrics that come from the traced ops' spans and from
// counters read at the same boundaries.

import (
	"time"

	"nodecap/internal/core"
	"nodecap/internal/machine"
)

const msPerNs = 1.0 / float64(time.Millisecond)

// spanStats reduces the recorded spans by name: per traced op the
// summed duration and summed self time in ms, and every duration in µs.
type spanStats struct {
	ops   int                  // traced ops: one driver.op root span each
	total map[string][]float64 // name → per-op summed duration, ms
	self  map[string][]float64 // name → per-op summed self time, ms
	each  map[string][]float64 // name → every span's duration, µs

	txBytes, rxBytes float64 // through the counted conns, per traced op
}

func reduceSpans(tr *tracer) spanStats {
	slot := map[int32]int{} // op id → index among the traced ops
	for _, s := range tr.spans {
		if s.Name == spanOp {
			slot[s.Op] = len(slot)
		}
	}
	st := spanStats{
		ops:   len(slot),
		total: map[string][]float64{},
		self:  map[string][]float64{},
		each:  map[string][]float64{},
	}
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		k := slot[s.Op]
		if st.total[s.Name] == nil {
			st.total[s.Name] = make([]float64, st.ops)
			st.self[s.Name] = make([]float64, st.ops)
		}
		st.total[s.Name][k] += float64(s.dur()) * msPerNs
		st.self[s.Name][k] += float64(self[i]) * msPerNs
		st.each[s.Name] = append(st.each[s.Name], float64(s.dur())/1e3)
	}
	if st.ops > 0 {
		st.txBytes = float64(tr.tx.Load()) / float64(st.ops)
		st.rxBytes = float64(tr.rx.Load()) / float64(st.ops)
	}
	return st
}

// perOp is the median over traced ops of a layer's summed span time.
func (st spanStats) perOp(name string) float64 { return median(st.total[name]) }

func (st spanStats) selfPerOp(name string) float64 { return median(st.self[name]) }

func (st spanStats) countPerOp(name string) float64 {
	return float64(len(st.each[name])) / float64(max(st.ops, 1))
}

// driverSelfPct is the median share of a traced op's wall time that no
// layer span accounts for: the root span's self time over its duration.
func (st spanStats) driverSelfPct() float64 {
	pct := make([]float64, 0, st.ops)
	for k, total := range st.total[spanOp] {
		if total > 0 {
			pct = append(pct, 100*st.self[spanOp][k]/total)
		}
	}
	return median(pct)
}

// --- paper_sweep ----------------------------------------------------

func capped(res core.SweepResult, watts float64) core.CapResult {
	for _, c := range res.Capped {
		if c.CapWatts == watts {
			return c
		}
	}
	panic("bench: cap missing from the sweep")
}

func (p *paperSweep) layers(m *metrics, st spanStats) {
	var accesses, committed float64
	for k, name := range sweepNames {
		m.set("core.sweep_ms."+name, st.perOp(spanSweep+"."+name), st.ops)
		res := p.last[k]
		for _, c := range res.All() {
			accesses += c.Counters.Loads + c.Counters.Stores
			committed += c.Counters.Committed
		}
		base := res.Baseline
		m.set("sim."+name+".slowdown_x.cap140", capped(res, 140).TimeSeconds/base.TimeSeconds, 0)
		m.set("sim."+name+".slowdown_x.cap120", capped(res, 120).TimeSeconds/base.TimeSeconds, 0)
		m.set("sim."+name+".itlb_miss_x.cap120", capped(res, 120).Counters.ITLBMisses/base.Counters.ITLBMisses, 0)
	}
	stereo := p.last[sweepStereo]
	m.set("sim.stereo.l2_miss_x.cap120", capped(stereo, 120).Counters.L2Misses/stereo.Baseline.Counters.L2Misses, 0)
	m.set("sim.stereo.freq_mhz.cap130", capped(stereo, 130).FreqMHz, 0)
	m.set("sim.floor_w", machine.New(machine.Romley()).CapFloorWatts(), 0)
	m.set("sim.accesses_per_op", accesses, 0)
	m.set("sim.committed_per_op", committed, 0)
	m.set("machine.host_ns_per_sim_access", st.perOp(spanOp)/msPerNs/accesses, st.ops)
	p.probeRuns(m)
}

// --- the control-plane workloads ------------------------------------

// exchangeLayers sets what every control-plane workload reads off its
// exchange spans and counting conns.
func (c *controlPlane) exchangeLayers(m *metrics, st spanStats) {
	ex := sortedCopy(st.each[spanExchange])
	m.set("ipmi.exchange_us_p50", quantile(ex, 0.5), len(ex))
	if len(ex) >= 200 {
		m.set("ipmi.exchange_us_p95", quantile(ex, 0.95), len(ex))
	}
	m.set("ipmi.exchanges_per_op", st.countPerOp(spanExchange), st.ops)
	m.set("ipmi.tx_bytes_per_op", st.txBytes, st.ops)
	m.set("ipmi.rx_bytes_per_op", st.rxBytes, st.ops)
	m.set("dcm.poll_self_ms", st.selfPerOp(spanPoll), st.ops)
	m.set("shard.rebalance_self_ms", st.selfPerOp(spanRebalance), st.ops)
}

func (f *fleetSoak) layers(m *metrics, st spanStats) {
	f.exchangeLayers(m, st)
	nodes := float64(len(f.r.names))
	m.set("fleet.tick_ms_per_op", st.perOp(spanTick), st.ops)
	m.set("fleet.tick_ns_per_node", st.perOp(spanTick)/msPerNs/(nodes*float64(soakChunks*f.chunkTicks)), st.ops)
	m.set("dcm.poll_ms_per_op", st.perOp(spanPoll), st.ops)
	m.set("dcm.poll_us_per_node.inproc", st.perOp(spanPoll)*1e3/(nodes*soakChunks), st.ops)
	m.set("shard.rebalance_ms_per_op", st.perOp(spanRebalance), st.ops)
	m.set("fleet.new_ms", float64(f.r.newEngine)*msPerNs, 0)
	m.set("shard.add_nodes_ms.n10000", float64(f.r.addNodes)*msPerNs, 0)
	f.counterLayers(m)
}

// counterLayers sets the exact per-op counts over the whole timed phase.
func (c *controlPlane) counterLayers(m *metrics) {
	ops := float64(c.timedOps)
	m.set("store.records_per_op", float64(c.r.storeSeq()-c.seq0)/ops, c.timedOps)
	m.set("dcm.cap_pushes_per_op", float64(c.r.pushes.Value()-c.pushes0)/ops, c.timedOps)
}

func (b *budgetPush) layers(m *metrics, st spanStats) {
	b.exchangeLayers(m, st)
	m.set("shard.rebalance_ms.wire", st.perOp(spanRebalance), st.ops)
	b.counterLayers(m)
}

func (p *pollSweep) layers(m *metrics, st spanStats) {
	p.exchangeLayers(m, st)
	m.set("dcm.poll_ms_per_sweep.wire", st.perOp(spanPoll), st.ops)
	m.set("dcm.poll_us_per_node.wire", st.perOp(spanPoll)*1e3/float64(len(p.r.names)), st.ops)
	p.counterLayers(m)
}

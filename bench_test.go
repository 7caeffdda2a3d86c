package nodecap

// One benchmark per table and figure of the paper's evaluation
// section, plus the ablation benches DESIGN.md calls out. Each bench
// runs reduced-size workloads (the full paper-shaped sweep lives in
// cmd/powercap-bench) and reports the headline quantities as custom
// metrics, so `go test -bench=.` doubles as a regression harness for
// the reproduction's shape: who wins, by what factor, and where the
// cliffs sit.

import (
	"testing"

	"nodecap/internal/amenability"
	"nodecap/internal/cache"
	"nodecap/internal/core"
	"nodecap/internal/fleet"
	"nodecap/internal/machine"
	"nodecap/internal/multicore"
	"nodecap/internal/workloads/bursty"
	"nodecap/internal/workloads/parallel"
	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
	"nodecap/internal/workloads/stride"
)

// benchSARConfig keeps the > L3 streaming footprint but trims the
// image-formation phase.
func benchSARConfig() sar.Config {
	cfg := sar.DefaultConfig()
	cfg.RSMIterations = 2
	cfg.ImageSize = 48
	return cfg
}

// benchStereoConfig keeps the L3-resident random working set with one
// annealing sweep.
func benchStereoConfig() stereo.Config {
	cfg := stereo.DefaultConfig()
	cfg.Sweeps = 1
	return cfg
}

func runOnce(w machine.Workload, capWatts float64, seed uint64) machine.RunResult {
	cfg := machine.Romley()
	cfg.Seed = seed
	m := machine.New(cfg)
	m.SetPolicy(capWatts)
	return m.RunWorkload(w)
}

// BenchmarkTableI_SIRE measures the SIRE/RSM baseline row of Table I.
func BenchmarkTableI_SIRE(b *testing.B) {
	var last machine.RunResult
	for i := 0; i < b.N; i++ {
		last = runOnce(sar.New(benchSARConfig()), 0, uint64(i))
	}
	b.ReportMetric(last.AvgPowerWatts, "node-W")
	b.ReportMetric(last.ExecTime.Seconds()*1e3, "virt-ms")
}

// BenchmarkTableI_Stereo measures the Stereo Matching baseline row.
func BenchmarkTableI_Stereo(b *testing.B) {
	var last machine.RunResult
	for i := 0; i < b.N; i++ {
		last = runOnce(stereo.New(benchStereoConfig()), 0, uint64(i))
	}
	b.ReportMetric(last.AvgPowerWatts, "node-W")
	b.ReportMetric(last.ExecTime.Seconds()*1e3, "virt-ms")
}

// tableIISweep runs a reduced Table II sweep (the representative caps)
// and reports the slowdown factors the paper's rows pivot on.
func tableIISweep(b *testing.B, mk func() machine.Workload) {
	b.Helper()
	caps := []float64{150, 140, 130, 120}
	var res core.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Experiment{
			NewWorkload: mk,
			Caps:        caps,
			Trials:      1,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	base := res.Baseline.TimeSeconds
	for i, cap := range caps {
		r := res.Capped[i]
		b.ReportMetric(r.TimeSeconds/base, byLabel(cap))
	}
	b.ReportMetric(res.Capped[len(caps)-1].PowerWatts, "floor-W")
}

func byLabel(cap float64) string {
	switch cap {
	case 150:
		return "slowdown150x"
	case 140:
		return "slowdown140x"
	case 130:
		return "slowdown130x"
	default:
		return "slowdown120x"
	}
}

// BenchmarkTableII_Stereo regenerates the A rows of Table II.
func BenchmarkTableII_Stereo(b *testing.B) {
	tableIISweep(b, func() machine.Workload { return stereo.New(benchStereoConfig()) })
}

// BenchmarkTableII_SIRE regenerates the B rows of Table II.
func BenchmarkTableII_SIRE(b *testing.B) {
	tableIISweep(b, func() machine.Workload { return sar.New(benchSARConfig()) })
}

// BenchmarkFigure1_SIRESeries regenerates Figure 1's normalized series
// end-to-end (sweep, normalization) and reports the frequency floor.
func BenchmarkFigure1_SIRESeries(b *testing.B) {
	var res core.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Experiment{
			NewWorkload: func() machine.Workload { return sar.New(benchSARConfig()) },
			Caps:        []float64{150, 130, 120},
			Trials:      1,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	freq := res.Series(func(r core.CapResult) float64 { return r.FreqMHz })
	b.ReportMetric(freq[len(freq)-1]/freq[0], "freq-floor-frac")
}

// BenchmarkFigure2_StereoSeries regenerates Figure 2's series and
// reports the L3 miss-rate growth the figure shows.
func BenchmarkFigure2_StereoSeries(b *testing.B) {
	var res core.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Experiment{
			NewWorkload: func() machine.Workload { return stereo.New(benchStereoConfig()) },
			Caps:        []float64{150, 130, 120},
			Trials:      1,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	l3 := res.Series(func(r core.CapResult) float64 { return r.Counters.L3Misses })
	b.ReportMetric(l3[len(l3)-1]/l3[0], "l3-growth-x")
}

// strideBenchConfig trims the sweep enough for a bench iteration while
// keeping all three capacity cliffs in range.
func strideBenchConfig() stride.Config {
	cfg := stride.DefaultConfig()
	cfg.MaxArrayBytes = 64 << 20
	cfg.TouchesPerPoint = 1024
	// Warm coverage must exceed the 20 MiB L3 or the largest arrays'
	// measured prefixes stay L3-resident and the memory boundary
	// disappears from the inference.
	cfg.WarmCapTouches = 512 << 10
	return cfg
}

// BenchmarkFigure3_StrideUncapped regenerates Figure 3 and reports the
// inferred per-level access times.
func BenchmarkFigure3_StrideUncapped(b *testing.B) {
	var pts []stride.Point
	for i := 0; i < b.N; i++ {
		p := stride.New(strideBenchConfig())
		m := machine.New(machine.Romley())
		m.RunWorkload(p)
		pts = p.Points()
	}
	g, err := stride.Infer(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(g.L1Nanos, "L1-ns")
	b.ReportMetric(g.L2Nanos, "L2-ns")
	b.ReportMetric(g.L3Nanos, "L3-ns")
	b.ReportMetric(g.MemNanos, "mem-ns")
}

// BenchmarkFigure4_StrideCapped regenerates Figure 4 (120 W) and
// reports how far the memory level inflates over the uncapped probe.
func BenchmarkFigure4_StrideCapped(b *testing.B) {
	cfg := strideBenchConfig()
	cfg.MaxArrayBytes = 8 << 20
	cfg.TouchesPerPoint = 512
	cfg.WarmCapTouches = 128 << 10
	find := func(pts []stride.Point, size, strideBytes int) float64 {
		for _, pt := range pts {
			if pt.ArrayBytes == size && pt.StrideBytes == strideBytes {
				return pt.AvgAccessNanos
			}
		}
		return 0
	}
	var capped, base float64
	for i := 0; i < b.N; i++ {
		pb := stride.New(cfg)
		mb := machine.New(machine.Romley())
		mb.RunWorkload(pb)
		base = find(pb.Points(), 8<<20, 64)

		pc := stride.New(cfg)
		mc := machine.New(machine.Romley())
		mc.SetPolicy(120)
		mc.RunWorkload(pc)
		capped = find(pc.Points(), 8<<20, 64)
	}
	b.ReportMetric(base, "base-ns")
	b.ReportMetric(capped, "capped-ns")
	b.ReportMetric(capped/base, "inflation-x")
}

// BenchmarkAblationDVFSOnly removes the gating ladder: the controller
// can no longer track caps below the slowest P-state's power, but the
// low-cap execution-time blow-up disappears — the trade the paper's
// Section IV-B uncovers.
func BenchmarkAblationDVFSOnly(b *testing.B) {
	var full, dvfs machine.RunResult
	for i := 0; i < b.N; i++ {
		full = runOnce(stereo.New(benchStereoConfig()), 120, 1)

		cfg := machine.Romley()
		cfg.Ladder = machine.DVFSOnlyLadder()
		m := machine.New(cfg)
		m.SetPolicy(120)
		dvfs = m.RunWorkload(stereo.New(benchStereoConfig()))
	}
	b.ReportMetric(full.ExecTime.Seconds()/dvfs.ExecTime.Seconds(), "gating-penalty-x")
	b.ReportMetric(dvfs.AvgPowerWatts, "dvfs-only-W")
	b.ReportMetric(full.AvgPowerWatts, "full-ladder-W")
}

// BenchmarkAblationNoDither clamps the controller to hold whatever
// P-state it first satisfies the cap at (huge up-hysteresis): average
// frequency becomes a grid value instead of Table II's intermediate
// averages, and time-to-solution worsens at caps that fall between
// P-state power levels.
func BenchmarkAblationNoDither(b *testing.B) {
	var dither, clamp machine.RunResult
	for i := 0; i < b.N; i++ {
		dither = runOnce(sar.New(benchSARConfig()), 145, 1)

		cfg := machine.Romley()
		cfg.BMC.HysteresisWatts = 1e9 // never step back up
		m := machine.New(cfg)
		m.SetPolicy(145)
		clamp = m.RunWorkload(sar.New(benchSARConfig()))
	}
	b.ReportMetric(dither.AvgFreqMHz, "dither-MHz")
	b.ReportMetric(clamp.AvgFreqMHz, "clamped-MHz")
	b.ReportMetric(clamp.ExecTime.Seconds()/dither.ExecTime.Seconds(), "clamp-penalty-x")
}

// BenchmarkAblationControlPeriod compares the default control period
// against a 10x slower controller: convergence transients lengthen and
// cap overshoot grows.
func BenchmarkAblationControlPeriod(b *testing.B) {
	var fast, slow machine.RunResult
	for i := 0; i < b.N; i++ {
		fast = runOnce(stereo.New(benchStereoConfig()), 135, 1)

		cfg := machine.Romley()
		cfg.BMC.ControlPeriod = 10 * cfg.BMC.ControlPeriod
		m := machine.New(cfg)
		m.SetPolicy(135)
		slow = m.RunWorkload(stereo.New(benchStereoConfig()))
	}
	b.ReportMetric(fast.BMCStats.OverCapFraction(), "fast-overcap-frac")
	b.ReportMetric(slow.BMCStats.OverCapFraction(), "slow-overcap-frac")
	b.ReportMetric(slow.AvgPowerWatts-fast.AvgPowerWatts, "extra-W")
}

// BenchmarkAblationReplacement swaps the caches' true-LRU for random
// replacement and measures the stereo workload's L3 misses under deep
// way gating: the miss cliff the paper observes depends on LRU's stack
// behaviour.
func BenchmarkAblationReplacement(b *testing.B) {
	run := func(policy cache.ReplacementPolicy) machine.RunResult {
		cfg := machine.Romley()
		cfg.Hierarchy.L1D.Replacement = policy
		cfg.Hierarchy.L2.Replacement = policy
		cfg.Hierarchy.L3.Replacement = policy
		m := machine.New(cfg)
		m.SetPolicy(120)
		return m.RunWorkload(stereo.New(benchStereoConfig()))
	}
	var lru, random machine.RunResult
	for i := 0; i < b.N; i++ {
		lru = run(cache.LRU)
		random = run(cache.Random)
	}
	b.ReportMetric(float64(lru.Counters.L3Misses), "lru-l3-misses")
	b.ReportMetric(float64(random.Counters.L3Misses), "random-l3-misses")
}

// BenchmarkFutureWorkMulticore quantifies the multi-core future-work
// question: speedup at 4 cores with and without a node cap, and the
// capped run's operating point.
func BenchmarkFutureWorkMulticore(b *testing.B) {
	wcfg := sar.DefaultConfig()
	wcfg.RSMIterations = 1
	wcfg.ImageSize = 48
	runMC := func(cores int, cap float64) multicore.Result {
		cfg := machine.Romley()
		cfg.Cores = cores
		m := machine.New(cfg)
		m.SetPolicy(cap)
		return multicore.Run(m, parallel.NewSAR(wcfg))
	}
	var one, four, fourCap multicore.Result
	for i := 0; i < b.N; i++ {
		one = runMC(1, 0)
		four = runMC(4, 0)
		fourCap = runMC(4, 200)
	}
	b.ReportMetric(four.SpeedupOver(one), "speedup4x")
	b.ReportMetric(fourCap.SpeedupOver(one), "speedup4x-capped")
	b.ReportMetric(fourCap.AvgFreqMHz, "capped-MHz")
	b.ReportMetric(four.AvgPowerWatts, "uncapped-W")
}

// BenchmarkFutureWorkAmenability runs the characterization methodology
// end to end and reports its predictions for the study's headline
// contrast (stereo vs SAR at a deep cap).
func BenchmarkFutureWorkAmenability(b *testing.B) {
	cfg := machine.Romley()
	stereoCfg := stereo.SmallConfig()
	stereoCfg.Width, stereoCfg.Height = 416, 416
	stereoCfg.Sweeps = 1
	sarCfg := sar.SmallConfig()
	sarCfg.Apertures = 96
	sarCfg.SamplesPerAperture = 8192

	var stScore, saScore float64
	for i := 0; i < b.N; i++ {
		cal := amenability.Calibrate(cfg, []float64{140, 120}, 0)
		st := amenability.ProfileApp("stereo",
			func() machine.Workload { return stereo.New(stereoCfg) }, cfg, 0)
		sa := amenability.ProfileApp("sar",
			func() machine.Workload { return sar.New(sarCfg) }, cfg, 0)
		stScore, saScore = st.Score(cal), sa.Score(cal)
	}
	b.ReportMetric(stScore, "stereo-deepcap-x")
	b.ReportMetric(saScore, "sar-deepcap-x")
}

// BenchmarkFutureWorkBurstyCap measures the unpredictable-workload
// experiment: how much of the supply-budget violation an enforced cap
// removes, and what it costs in time.
func BenchmarkFutureWorkBurstyCap(b *testing.B) {
	cfg := bursty.DefaultConfig()
	var rows []bursty.CapStudy
	for i := 0; i < b.N; i++ {
		rows = bursty.RunStudy(cfg, []float64{135}, 135, 0)
	}
	b.ReportMetric(rows[0].Profile.OverBudgetFraction, "uncapped-overbudget")
	b.ReportMetric(rows[1].Profile.OverBudgetFraction, "capped-overbudget")
	b.ReportMetric(rows[1].Result.ExecTime.Seconds()/rows[0].Result.ExecTime.Seconds(), "cap-cost-x")
}

// BenchmarkMachineOpThroughput measures the simulator's own speed:
// simulated memory operations per wall second, the quantity that
// bounds every experiment above.
func BenchmarkMachineOpThroughput(b *testing.B) {
	m := machine.New(machine.Romley())
	base := m.Alloc(1 << 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(base + uint64(i%65536)*64)
	}
}

// BenchmarkFleetTick measures the SoA fleet engine's batch stepping
// rate at chaos scale: 10k capped nodes advanced one control tick per
// iteration, sharded one range per CPU. The custom metric is the
// headline quantity (node-ticks per wall second); steady state must
// stay allocation-free, which bench-smoke CI enforces via benchdiff
// against the committed BENCH_20.json medians.
func BenchmarkFleetTick(b *testing.B) {
	const nodes = 10000
	e := fleet.New(fleet.Config{Nodes: nodes, Seed: 1})
	defer e.Close()
	for i := 0; i < nodes; i++ {
		e.PushPolicy(i, true, 140, 0)
	}
	e.Tick(1) // warm the gang and settle lazy state
	b.ReportAllocs()
	b.ResetTimer()
	e.Tick(b.N)
	b.StopTimer()
	b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "node-ticks/s")
}

// sweepAtParallelism runs the ISSUE's reference grid (4 caps x 3
// trials + baseline) at a fixed worker-pool width so the two variants
// below measure the pool's wall-clock scaling on the same work.
func sweepAtParallelism(b *testing.B, parallelism int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		_, err := core.Experiment{
			NewWorkload: func() machine.Workload { return stereo.New(benchStereoConfig()) },
			Caps:        []float64{150, 140, 130, 120},
			Trials:      3,
			Parallelism: parallelism,
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel1 is the sequential reference for the cap-sweep
// worker pool; compare against BenchmarkSweepParallel4 on a multi-core
// host to see the scaling.
func BenchmarkSweepParallel1(b *testing.B) { sweepAtParallelism(b, 1) }

// BenchmarkSweepParallel4 runs the same grid on four workers. The
// sweep is embarrassingly parallel (15 independent machine runs), so
// on >= 4 free cores this approaches a 4x speedup over Parallel1.
func BenchmarkSweepParallel4(b *testing.B) { sweepAtParallelism(b, 4) }

// BenchmarkAblationTStates answers "could the paper's platform have
// honoured its 120 W cap?": with ACPI clock modulation appended to the
// escalation ladder the cap is reachable, at a further time cost —
// without it the node floors at ~123 W (Table II rows A9/B9).
func BenchmarkAblationTStates(b *testing.B) {
	var plain, tstates machine.RunResult
	for i := 0; i < b.N; i++ {
		plain = runOnce(stereo.New(benchStereoConfig()), 120, 1)

		cfg := machine.Romley()
		cfg.TStates = []float64{0.75, 0.5, 0.25, 0.125}
		m := machine.New(cfg)
		m.SetPolicy(120)
		tstates = m.RunWorkload(stereo.New(benchStereoConfig()))
	}
	b.ReportMetric(plain.AvgPowerWatts, "no-tstates-W")
	b.ReportMetric(tstates.AvgPowerWatts, "tstates-W")
	b.ReportMetric(tstates.ExecTime.Seconds()/plain.ExecTime.Seconds(), "extra-cost-x")
}

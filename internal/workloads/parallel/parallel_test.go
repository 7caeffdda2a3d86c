package parallel

import (
	"math"
	"testing"

	"nodecap/internal/machine"
	"nodecap/internal/multicore"
	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
)

func stereoCfg() stereo.Config {
	cfg := stereo.SmallConfig()
	cfg.Width, cfg.Height = 256, 256
	cfg.Sweeps = 14
	return cfg
}

func sarCfg() sar.Config {
	cfg := sar.SmallConfig()
	cfg.Apertures = 64
	cfg.SamplesPerAperture = 4096
	cfg.ImageSize = 32
	cfg.BPAperturesPerIter = 16
	return cfg
}

// run executes w on a fresh node of the given width under capWatts
// (0 = uncapped).
func run(cores int, capWatts float64, w multicore.Workload) multicore.Result {
	cfg := machine.Romley()
	cfg.Cores = cores
	m := machine.New(cfg)
	m.SetPolicy(capWatts)
	return multicore.Run(m, w)
}

func runStereo(t *testing.T, cores int, capWatts float64) (*Stereo, multicore.Result) {
	t.Helper()
	w := NewStereo(stereoCfg())
	return w, run(cores, capWatts, w)
}

func TestParallelStereoConverges(t *testing.T) {
	w, res := runStereo(t, 4, 0)
	if er := w.ErrorRate(); er > 0.15 {
		t.Errorf("4-core annealing error rate = %.3f", er)
	}
	if res.Workload != "Stereo Matching (parallel)" {
		t.Errorf("name = %q", res.Workload)
	}
}

func TestParallelStereoSpeedup(t *testing.T) {
	_, one := runStereo(t, 1, 0)
	_, four := runStereo(t, 4, 0)
	speedup := four.SpeedupOver(one)
	if speedup < 2.0 {
		t.Errorf("4-core stereo speedup = %.2f, want >= 2", speedup)
	}
	// Stripe decomposition shrinks each core's working set into its
	// private L2 and DTLB reach, so superlinear speedup is legitimate
	// here (the counters confirm the mechanism below); bound it.
	if speedup > 7.0 {
		t.Errorf("4-core stereo speedup = %.2f implausibly superlinear", speedup)
	}
	if four.Counters.L2Misses >= one.Counters.L2Misses {
		t.Errorf("partitioning did not reduce L2 misses: %d vs %d",
			four.Counters.L2Misses, one.Counters.L2Misses)
	}
	if four.Counters.DTLBMisses >= one.Counters.DTLBMisses {
		t.Errorf("partitioning did not reduce DTLB misses: %d vs %d",
			four.Counters.DTLBMisses, one.Counters.DTLBMisses)
	}
}

func TestParallelStereoUnderCap(t *testing.T) {
	// Future-work experiment: 4 busy cores under a 200 W cap must
	// throttle (4-core uncapped draw is ~250 W) and still converge.
	w, res := runStereo(t, 4, 200)
	if res.AvgPowerWatts > 203 {
		t.Errorf("capped parallel power = %.1f W", res.AvgPowerWatts)
	}
	if res.AvgFreqMHz > 2400 {
		t.Errorf("capped parallel frequency = %.0f MHz; expected throttling", res.AvgFreqMHz)
	}
	// Parallel SA is interleaving-dependent (racy cross-stripe reads
	// cascade through the smoothness term), and throttling changes the
	// interleaving, so this realization differs from the uncapped one.
	// Require a clear improvement over the random-init error (~0.62)
	// rather than a tight threshold.
	if er := w.ErrorRate(); er > 0.45 {
		t.Errorf("capped run error rate = %.3f, want well below random-init ~0.62", er)
	}
}

func TestParallelSARFormsImage(t *testing.T) {
	w := NewSAR(sarCfg())
	res := run(4, 0, w)
	if res.ExecTime <= 0 {
		t.Fatal("no execution time")
	}
	// The image must have a dominant peak (a focused target).
	var peak, sum float64
	for _, v := range w.Image() {
		sum += v
		if v > peak {
			peak = v
		}
	}
	mean := sum / float64(len(w.Image()))
	if peak < 3*mean {
		t.Errorf("peak %.2f not well above mean %.2f", peak, mean)
	}
}

func TestParallelSARBarrierOrdersPhases(t *testing.T) {
	// With the spin barrier, the backprojection must read fully
	// denoised data: the resulting image is identical regardless of
	// core count.
	image := func(cores int) []float64 {
		w := NewSAR(sarCfg())
		run(cores, 0, w)
		return w.Image()
	}
	a, b := image(1), image(4)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("image differs at %d across core counts: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParallelSARSpeedup(t *testing.T) {
	runN := func(cores int) multicore.Result {
		return run(cores, 0, NewSAR(sarCfg()))
	}
	one := runN(1)
	four := runN(4)
	speedup := four.SpeedupOver(one)
	if speedup < 1.5 {
		t.Errorf("4-core SAR speedup = %.2f, want >= 1.5 (memory-bound)", speedup)
	}
	if speedup > 4.4 {
		t.Errorf("4-core SAR speedup = %.2f exceeds core count", speedup)
	}
}

func TestCapCostsMoreTimeInParallel(t *testing.T) {
	// The future-work headline: the cap-vs-time trade persists on
	// multiple cores, and because N cores share one budget, a node cap
	// that is mild for one core is severe for four.
	runCap := func(capWatts float64) multicore.Result {
		return run(4, capWatts, NewSAR(sarCfg()))
	}
	base := runCap(0)
	capped := runCap(190)
	if capped.ExecTime <= base.ExecTime {
		t.Errorf("190 W cap did not slow a 4-core run (%v vs %v)", capped.ExecTime, base.ExecTime)
	}
}

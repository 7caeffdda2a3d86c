// Package integration holds cross-module tests: full experiment sweeps
// rendered through the report layer, the management plane driving
// machines end to end, and consistency checks between independently
// computed quantities (meter energy vs power x time, counter snapshots
// vs hierarchy stats).
package integration

import (
	"math"
	"strings"
	"testing"
	"time"

	"nodecap/internal/core"
	"nodecap/internal/counters"
	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
	"nodecap/internal/machine"
	"nodecap/internal/nodeagent"
	"nodecap/internal/report"
	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
	"nodecap/internal/workloads/stride"
)

// sweepOnce runs a compact two-cap sweep for the given workload
// constructor; used by several tests below.
func sweepOnce(t *testing.T, mk func() machine.Workload) core.SweepResult {
	t.Helper()
	res, err := core.Experiment{
		NewWorkload: mk,
		Caps:        []float64{140, 120},
		Trials:      1,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func smallStereo() machine.Workload {
	// 416x416 gives a ~4.8 MiB working set: inside the full 20 MiB L3,
	// outside the deepest way-gated one (4 MiB) — the configuration
	// the paper's stereo findings hinge on, at test-friendly size.
	cfg := stereo.SmallConfig()
	cfg.Width, cfg.Height = 416, 416
	cfg.Sweeps = 1
	return stereo.New(cfg)
}

func smallSAR() machine.Workload {
	cfg := sar.SmallConfig()
	cfg.Apertures = 96
	cfg.SamplesPerAperture = 8192
	return sar.New(cfg)
}

// TestSweepThroughReportPipeline exercises experiment -> diff ->
// renderers without any fixture shortcuts.
func TestSweepThroughReportPipeline(t *testing.T) {
	res := sweepOnce(t, smallStereo)

	t1 := report.TableI([]core.SweepResult{res})
	if !strings.Contains(t1, "Stereo Matching") {
		t.Errorf("Table I missing workload:\n%s", t1)
	}
	t2 := report.TableII(res, "A")
	for _, want := range []string{"A0", "A1", "A2", "baseline", "140", "120"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
	fig := report.Figure12(res, "Figure 2", true)
	if !strings.Contains(fig, "L3 Miss Rate") {
		t.Errorf("Figure missing series:\n%s", fig)
	}
	csv := report.Figure12CSV(res, true)
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 4 {
		t.Errorf("CSV row count wrong:\n%s", csv)
	}
}

// TestEnergyConsistentWithPowerAndTime: Table II's energy column must
// equal average power times execution time (within integration error),
// since the paper computes energy exactly that way.
func TestEnergyConsistentWithPowerAndTime(t *testing.T) {
	res := sweepOnce(t, smallStereo)
	for _, r := range res.All() {
		want := r.PowerWatts * r.TimeSeconds
		if math.Abs(r.EnergyJoules-want) > 0.05*want {
			t.Errorf("%s: energy %.2f J vs power*time %.2f J", r.Label, r.EnergyJoules, want)
		}
	}
}

// TestPaperHeadlineShapeBothWorkloads checks the cross-workload
// findings on a compact sweep: both slow down monotonically, the cap
// floor is unreachable at 120 W, and the stereo workload's L3 misses
// explode while the streaming SAR workload's stay within a factor.
func TestPaperHeadlineShapeBothWorkloads(t *testing.T) {
	stereoRes := sweepOnce(t, smallStereo)
	sarRes := sweepOnce(t, smallSAR)

	for _, res := range []core.SweepResult{stereoRes, sarRes} {
		base := res.Baseline.TimeSeconds
		if res.Capped[0].TimeSeconds <= base {
			t.Errorf("%s: no slowdown at 140 W", res.Workload)
		}
		if res.Capped[1].TimeSeconds <= res.Capped[0].TimeSeconds {
			t.Errorf("%s: 120 W not slower than 140 W", res.Workload)
		}
		if p := res.Capped[1].PowerWatts; p <= 120 || p > 127 {
			t.Errorf("%s: 120 W cap power = %.1f, want floor in (120, 127]", res.Workload, p)
		}
	}

	stereoGrowth := stereoRes.Capped[1].Counters.L3Misses / stereoRes.Baseline.Counters.L3Misses
	sarGrowth := sarRes.Capped[1].Counters.L3Misses / sarRes.Baseline.Counters.L3Misses
	if stereoGrowth < 1.5 {
		t.Errorf("stereo L3 miss growth = %.2fx, want explosive", stereoGrowth)
	}
	if sarGrowth > 1.6 {
		t.Errorf("SAR L3 miss growth = %.2fx, want stream-stable", sarGrowth)
	}
	if stereoGrowth <= sarGrowth {
		t.Errorf("ordering lost: stereo %.2fx vs SAR %.2fx", stereoGrowth, sarGrowth)
	}
}

// TestCountersMatchHierarchyStats: the PAPI layer and the machine's
// raw hierarchy must agree on what happened during a run.
func TestCountersMatchHierarchyStats(t *testing.T) {
	m := machine.New(machine.Romley())
	es := counters.NewEventSet(m)
	if err := es.Add(counters.L2TCM, counters.TLBIM, counters.TOTINS); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	res := m.RunWorkload(smallStereo())
	if err := es.Stop(); err != nil {
		t.Fatal(err)
	}
	l2, _ := es.Read(counters.L2TCM)
	if l2 != res.Counters.L2Misses {
		t.Errorf("PAPI L2 %d != run result %d", l2, res.Counters.L2Misses)
	}
	itlb, _ := es.Read(counters.TLBIM)
	if itlb != res.Counters.ITLBMisses {
		t.Errorf("PAPI iTLB %d != run result %d", itlb, res.Counters.ITLBMisses)
	}
	ins, _ := es.Read(counters.TOTINS)
	if ins != res.Counters.InstructionsCommitted {
		t.Errorf("PAPI TOT_INS %d != run result %d", ins, res.Counters.InstructionsCommitted)
	}
}

// TestManagementPlaneEnforcesSweep drives the sweep through the full
// DCM -> IPMI -> agent stack instead of calling SetPolicy directly,
// checking that out-of-band management produces the same throttling.
func TestManagementPlaneEnforcesSweep(t *testing.T) {
	agent := nodeagent.New(machine.Romley(), nodeagent.Options{
		Workload: smallStereo,
	})
	defer agent.Stop()
	srv := ipmi.NewServer(agent)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mgr := dcm.NewManager(nil)
	defer mgr.Close()
	if err := mgr.AddNode("n0", addr); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetNodeCap("n0", 130); err != nil {
		t.Fatal(err)
	}

	// Wait for a run that completed fully under the cap.
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, n := agent.LastRun()
		if n >= 3 && r.CapWatts == 130 && r.AvgFreqMHz < 1500 {
			if r.AvgPowerWatts > 131.5 {
				t.Errorf("managed node power %.1f W above cap", r.AvgPowerWatts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cap never converged via management plane: runs=%d freq=%.0f", n, r.AvgFreqMHz)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every RunWorkload opens with an idle lead-in during which the BMC
	// steps the clock back up, so one instantaneous FreqMHz sample can
	// land there. The throttled state must show up eventually within k
	// polls; what the management plane owns must hold on every one.
	const polls = 20
	throttled := false
	for i := 0; i < polls && !throttled; i++ {
		mgr.Poll()
		st := mgr.Nodes()[0]
		if !st.Reachable || !st.ReportedCapEnabled || st.ReportedCapWatts != 130 {
			t.Fatalf("poll %d: manager view = %+v", i, st)
		}
		throttled = st.Last.FreqMHz <= 1500
	}
	if !throttled {
		t.Errorf("no throttled sample (FreqMHz <= 1500) in %d polls: %+v", polls, mgr.Nodes()[0])
	}
}

// TestStrideProbeUnderSweepMachine: the probe and the table sweeps
// share one machine implementation; a capped probe must show the same
// frequency floor the table rows show.
func TestStrideProbeUnderSweepMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("probe sweep in -short mode")
	}
	cfg := stride.SmallConfig()
	p := stride.New(cfg)
	m := machine.New(machine.Romley())
	m.SetPolicy(125)
	res := m.RunWorkload(p)
	if res.AvgFreqMHz > 1350 {
		t.Errorf("probe under 125 W ran at %.0f MHz", res.AvgFreqMHz)
	}
	if len(p.Points()) == 0 {
		t.Fatal("no probe points")
	}
	// Figure 4's qualitative marker: some L1-resident point is slower
	// than the same point would be at full speed (~1.85 ns).
	for _, pt := range p.Points() {
		if pt.ArrayBytes == 16<<10 && pt.StrideBytes == 64 {
			if pt.AvgAccessNanos < 3.0 {
				t.Errorf("L1-level point at 125 W = %.2f ns, want >= 2x uncapped", pt.AvgAccessNanos)
			}
		}
	}
}

// TestDeterminismAcrossFullStack: identical seeds must give identical
// results through the whole experiment pipeline.
func TestDeterminismAcrossFullStack(t *testing.T) {
	run := func() core.SweepResult { return sweepOnce(t, smallStereo) }
	a, b := run(), run()
	if a.Baseline.Time != b.Baseline.Time {
		t.Errorf("baseline time differs: %v vs %v", a.Baseline.Time, b.Baseline.Time)
	}
	if a.Capped[1].Counters.L3Misses != b.Capped[1].Counters.L3Misses {
		t.Error("counter totals differ across identical sweeps")
	}
	if a.Capped[1].EnergyJoules != b.Capped[1].EnergyJoules {
		t.Error("energy differs across identical sweeps")
	}
}

// Command powercap-bench regenerates every table and figure of the
// paper's evaluation section on the simulated platform:
//
//	Table I   — baseline power and execution time (both workloads)
//	Table II  — the full cap sweep with percent differences
//	Figure 1  — SIRE/RSM normalized metric series
//	Figure 2  — Stereo Matching normalized metric series
//	Figure 3  — memory-stride probe, no cap
//	Figure 4  — memory-stride probe, 120 W cap
//
// Usage:
//
//	powercap-bench -all                 # everything, paper-sized
//	powercap-bench -table2 -fast        # reduced inputs and trials
//	powercap-bench -fig3 -csv out/      # also write CSV artefacts
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"nodecap/internal/core"
	"nodecap/internal/machine"
	"nodecap/internal/profiling"
	"nodecap/internal/report"
	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
	"nodecap/internal/workloads/stride"
)

type options struct {
	fast     bool
	trials   int
	parallel int
	csvDir   string
}

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		table1   = flag.Bool("table1", false, "Table I: baselines")
		table2   = flag.Bool("table2", false, "Table II: cap sweep")
		fig1     = flag.Bool("fig1", false, "Figure 1: SIRE/RSM normalized series")
		fig2     = flag.Bool("fig2", false, "Figure 2: Stereo Matching normalized series")
		fig3     = flag.Bool("fig3", false, "Figure 3: stride probe, no cap")
		fig4     = flag.Bool("fig4", false, "Figure 4: stride probe, 120 W cap")
		fig4deep = flag.Bool("fig4deep", false, "Figure 4 with the deep memory-gating ladder (paper-magnitude access times)")
		fast     = flag.Bool("fast", false, "reduced inputs and trials")
		trials   = flag.Int("trials", 0, "trials per cap (default 5, or 2 with -fast)")
		parallel = flag.Int("parallel", 0, "worker pool size for sweep runs (0 = one per CPU, 1 = sequential)")
		csvDir   = flag.String("csv", "", "directory for CSV artefacts (optional)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	opt := options{fast: *fast, trials: *trials, parallel: *parallel, csvDir: *csvDir}
	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		log.Fatalf("powercap-bench: %v", err)
	}
	defer func() {
		stopCPU()
		if err := profiling.WriteHeap(*memProf); err != nil {
			log.Fatalf("powercap-bench: %v", err)
		}
	}()
	if opt.trials <= 0 {
		opt.trials = 5
		if opt.fast {
			opt.trials = 2
		}
	}
	if opt.csvDir != "" {
		if err := os.MkdirAll(opt.csvDir, 0o755); err != nil {
			log.Fatalf("powercap-bench: %v", err)
		}
	}

	none := !*table1 && !*table2 && !*fig1 && !*fig2 && !*fig3 && !*fig4 && !*fig4deep
	if *all || none {
		*table1, *table2, *fig1, *fig2, *fig3, *fig4 = true, true, true, true, true, true
	}

	// The two table/figure sweeps share runs: compute each workload's
	// sweep once.
	var sireRes, stereoRes core.SweepResult
	needSweeps := *table1 || *table2 || *fig1 || *fig2
	if needSweeps {
		sireRes = runSweep(opt, "SIRE/RSM")
		stereoRes = runSweep(opt, "Stereo Matching")
	}

	if *table1 {
		fmt.Println(report.TableI([]core.SweepResult{sireRes, stereoRes}))
	}
	if *table2 {
		fmt.Println(report.TableII(stereoRes, "A"))
		fmt.Println(report.TableII(sireRes, "B"))
	}
	if *fig1 {
		fmt.Println(report.Figure12(sireRes, "Figure 1: SIRE/RSM", false))
		writeCSV(opt, "figure1.csv", report.Figure12CSV(sireRes, false))
	}
	if *fig2 {
		fmt.Println(report.Figure12(stereoRes, "Figure 2: Stereo Matching (simulated annealing)", true))
		writeCSV(opt, "figure2.csv", report.Figure12CSV(stereoRes, true))
	}
	if *fig3 {
		pts := runProbe(opt, 0, false)
		fmt.Println(report.StrideFigure(pts, "Figure 3: stride microbenchmark, no power cap"))
		writeCSV(opt, "figure3.csv", report.StrideCSV(pts))
		if g, err := stride.Infer(pts); err == nil {
			fmt.Printf("inferred: L1=%dK L2=%dK L3=%dM; access times %.1f/%.1f/%.1f ns, memory %.1f ns\n\n",
				g.L1Bytes>>10, g.L2Bytes>>10, g.L3Bytes>>20,
				g.L1Nanos, g.L2Nanos, g.L3Nanos, g.MemNanos)
		}
	}
	if *fig4 {
		pts := runProbe(opt, 120, false)
		fmt.Println(report.StrideFigure(pts, "Figure 4: stride microbenchmark, 120 W power cap"))
		writeCSV(opt, "figure4.csv", report.StrideCSV(pts))
	}
	if *fig4deep {
		pts := runProbe(opt, 120, true)
		fmt.Println(report.StrideFigure(pts,
			"Figure 4 (deep ladder): stride microbenchmark, 120 W cap, paper-magnitude memory gating"))
		writeCSV(opt, "figure4_deep.csv", report.StrideCSV(pts))
	}
}

// sweepWorkload builds the per-experiment workload constructor.
func sweepWorkload(opt options, name string) func() machine.Workload {
	switch name {
	case "SIRE/RSM":
		cfg := sar.DefaultConfig()
		if opt.fast {
			cfg.RSMIterations = 2
			cfg.ImageSize = 64
		}
		return func() machine.Workload { return sar.New(cfg) }
	case "Stereo Matching":
		cfg := stereo.DefaultConfig()
		if opt.fast {
			cfg.Sweeps = 1
		}
		return func() machine.Workload { return stereo.New(cfg) }
	default:
		log.Fatalf("powercap-bench: unknown workload %q", name)
		return nil
	}
}

func runSweep(opt options, name string) core.SweepResult {
	start := time.Now()
	fmt.Fprintf(os.Stderr, "powercap-bench: sweeping %s (%d trials x %d caps + baseline)...\n",
		name, opt.trials, len(core.PaperCaps()))
	res, err := core.Experiment{
		NewWorkload: sweepWorkload(opt, name),
		Trials:      opt.trials,
		Parallelism: opt.parallel,
	}.Run()
	if err != nil {
		log.Fatalf("powercap-bench: %v", err)
	}
	fmt.Fprintf(os.Stderr, "powercap-bench: %s done in %v\n", name, time.Since(start).Round(time.Second))
	return res
}

func runProbe(opt options, capWatts float64, deepLadder bool) []stride.Point {
	cfg := stride.DefaultConfig()
	if capWatts > 0 {
		cfg = stride.CappedConfig()
	}
	if opt.fast || deepLadder {
		cfg.MaxArrayBytes = 8 << 20
		cfg.TouchesPerPoint = 512
	}
	if deepLadder {
		// The warm pass must cover more than the gated L3 (4 MiB) so
		// the measured prefix of large arrays really lives in the
		// duty-cycled DRAM.
		cfg.MaxArrayBytes = 8 << 20
		cfg.WarmCapTouches = 128 << 10
		cfg.TouchesPerPoint = 256
	}
	mcfg := machine.Romley()
	if deepLadder {
		mcfg.Ladder = machine.DeepMemoryGatingLadder()
	}
	p := stride.New(cfg)
	m := machine.New(mcfg)
	m.SetPolicy(capWatts)
	fmt.Fprintf(os.Stderr, "powercap-bench: stride probe (cap=%.0f W)...\n", capWatts)
	m.RunWorkload(p)
	return p.Points()
}

func writeCSV(opt options, name, content string) {
	if opt.csvDir == "" {
		return
	}
	path := filepath.Join(opt.csvDir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatalf("powercap-bench: writing %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "powercap-bench: wrote %s\n", path)
}

package machine_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nodecap/internal/cache"
	"nodecap/internal/machine"
	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
	"nodecap/internal/workloads/stride"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/run_*.golden from this run")

// goldenCase is one recorded run: a workload on a machine under a cap.
type goldenCase struct {
	name string
	cfg  machine.Config
	capW float64
	mk   func() machine.Workload
}

// goldenCaps are the uncapped baseline and the three regions of the
// paper's sweep: DVFS only (150 W), the frequency floor (130 W) and
// the fully escalated ladder (120 W).
var goldenCaps = []float64{0, 150, 130, 120}

func goldenFiles() map[string][]goldenCase {
	smallStereo := func() machine.Workload { return stereo.New(stereo.SmallConfig()) }
	// The reduced configurations bench/workloads.go sweeps.
	st := stereo.DefaultConfig()
	st.Sweeps = 1
	sr := sar.DefaultConfig()
	sr.RSMIterations, sr.ImageSize = 2, 48

	romley := func(seed uint64) machine.Config {
		cfg := machine.Romley()
		cfg.Seed = seed
		return cfg
	}
	sweep := func(mk func() machine.Workload) []goldenCase {
		var cs []goldenCase
		for i, capW := range goldenCaps {
			// The seeds core.Experiment gives trial 0 of grid rows 1..4.
			cs = append(cs, goldenCase{fmt.Sprintf("cap%.0f", capW), romley(uint64(i+1) * 1000), capW, mk})
		}
		return cs
	}

	tstates := romley(7)
	tstates.TStates = []float64{0.75, 0.5, 0.25, 0.125}
	random := romley(9)
	random.Hierarchy.L2.Replacement = cache.Random

	return map[string][]goldenCase{
		"stereo_small": sweep(smallStereo),
		"stereo_bench": sweep(func() machine.Workload { return stereo.New(st) }),
		"sire_bench":   sweep(func() machine.Workload { return sar.New(sr) }),
		"stride_small": sweep(func() machine.Workload { return stride.New(stride.SmallConfig()) }),
		"variants": {
			{"tstates_cap120", tstates, 120, smallStereo},
			{"random_l2_cap120", random, 120, smallStereo},
		},
	}
}

// render prints every field of the run and of the hierarchy's counters
// exactly: integers in decimal, floats as %b.
func render(w *bytes.Buffer, name string, r machine.RunResult, m *machine.Machine) {
	fmt.Fprintf(w, "# %s\n", name)
	fmt.Fprintf(w, "run workload=%q cap=%b exec=%d power=%b energy=%b freq=%b gating=%d\n",
		r.Workload, r.CapWatts, int64(r.ExecTime), r.AvgPowerWatts, r.EnergyJoules, r.AvgFreqMHz, r.FinalGatingLevel)
	fmt.Fprintf(w, "counters %+v\n", r.Counters)
	fmt.Fprintf(w, "bmc %+v\n", r.BMCStats)
	h := m.Hierarchy()
	fmt.Fprintf(w, "l1i %+v\nl1d %+v\nl2 %+v\nl3 %+v\n", h.L1I().Stats(), h.L1D().Stats(), h.L2().Stats(), h.L3().Stats())
	fmt.Fprintf(w, "itlb %+v\ndtlb %+v\n", h.ITLB().Stats(), h.DTLB().Stats())
	d := h.DRAM().Stats()
	fmt.Fprintf(w, "dram reads=%d writes=%d rowhits=%d rowmisses=%d gatestalls=%d gatestallps=%d\n",
		d.Reads, d.Writes, d.RowHits, d.RowMisses, d.GateStalls, int64(d.GateStallTime))
	fmt.Fprintf(w, "core busy=%d stall=%d transitions=%d pstate=%d now=%d\n",
		int64(m.Core().BusyTime()), int64(m.Core().StallTime()), m.Core().Transitions(), m.Core().PStateIndex(), int64(m.Now()))
}

// TestRunGolden is the simulator's exactness contract: every RunResult
// field, every cache/TLB/DRAM counter and the core's time accounting
// for the paper's workloads across the cap regimes, byte for byte
// against files recorded before the access path was restructured. A
// change that moves one hit/miss decision, one LRU victim or one float
// rounding anywhere on the path fails here.
func TestRunGolden(t *testing.T) {
	runGolden(t, func(*testing.T) *machine.Machine { return nil })
}

// TestRunGoldenRecycled runs the same grid with every machine built
// over the buffers of the one before it, against the same files: a
// recycled machine must not differ from a fresh one in any counter.
// Each file's chain starts from a machine a 120 W Random-L2 run left
// with ways gated and lines dirty; within a
// file each cap's machine is built over the previous cap's, the
// variants' Random-L2 machine over the T-state run's.
func TestRunGoldenRecycled(t *testing.T) {
	if *updateGolden {
		t.Skip("the goldens are recorded on fresh machines")
	}
	runGolden(t, func(t *testing.T) *machine.Machine {
		cases := goldenFiles()["variants"]
		c := cases[len(cases)-1]
		m := machine.New(c.cfg)
		_ = m.SetPolicy(c.capW)
		if r := m.RunWorkload(c.mk()); r.FinalGatingLevel == 0 {
			t.Fatal("the donor run ended ungated")
		}
		return m
	})
}

// runGolden runs every golden file's cases in order and compares what
// they render with the file. Each machine is built over the previous
// one of its file, the first over donor's; a nil donor means fresh
// machines throughout.
func runGolden(t *testing.T, donor func(t *testing.T) *machine.Machine) {
	for file, cases := range goldenFiles() {
		t.Run(file, func(t *testing.T) {
			if testing.Short() && (file == "stereo_bench" || file == "sire_bench") {
				t.Skip("full-size inputs; run without -short")
			}
			t.Parallel()
			var got bytes.Buffer
			prev := donor(t)
			for _, c := range cases {
				m := machine.Recycle(c.cfg, prev)
				// The advisory error of an infeasible cap is part of
				// the 120 W rows, not a failure.
				_ = m.SetPolicy(c.capW)
				render(&got, c.name, m.RunWorkload(c.mk()), m)
				if prev != nil {
					prev = m
				}
			}
			path := filepath.Join("testdata", "run_"+file+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("%s: first drift at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: length drifted: got %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}

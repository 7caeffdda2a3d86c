package multicore_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nodecap/internal/core"
	"nodecap/internal/machine"
	"nodecap/internal/multicore"
	"nodecap/internal/simtime"
	"nodecap/internal/workloads/parallel"
	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// runNode executes w on a fresh uniform node of the given width under
// capW (0 = uncapped) and renders every number the run produced.
func runNode(out *bytes.Buffer, name string, cores int, capW float64, w multicore.Workload) {
	cfg := machine.Romley()
	cfg.Cores = cores
	m := machine.New(cfg)
	_ = m.SetPolicy(capW) // the advisory infeasible-cap error is not a failure
	r := multicore.Run(m, w)

	fmt.Fprintf(out, "# %s\n", name)
	fmt.Fprintf(out, "run workload=%q cap=%b exec=%d power=%b energy=%b freq=%b serving=%b batch=%b gating=%d batchgating=%d\n",
		r.Workload, r.CapWatts, int64(r.ExecTime), r.AvgPowerWatts, r.EnergyJoules, r.AvgFreqMHz,
		r.ServingAvgFreqMHz, r.BatchAvgFreqMHz, m.GatingLevel(), m.BatchGatingLevel())
	fmt.Fprintf(out, "counters %+v\n", r.Counters)
	fmt.Fprintf(out, "busy")
	for _, b := range r.PerCoreBusy {
		fmt.Fprintf(out, " %d", int64(b))
	}
	fmt.Fprintf(out, "\nbmc %+v\n", r.BMCStats)
	fmt.Fprintf(out, "l3 %+v\n", m.Hierarchy().L3().Stats())
	d := m.Hierarchy().DRAM().Stats()
	fmt.Fprintf(out, "dram reads=%d writes=%d rowhits=%d rowmisses=%d gatestalls=%d gatestallps=%d\n",
		d.Reads, d.Writes, d.RowHits, d.RowMisses, d.GateStalls, int64(d.GateStallTime))
}

// goldenFiles renders the three recorded sets: the synthetic shard
// sets across widths, the two parallel applications, and the serving
// study's whole cap ladder.
func goldenFiles() map[string]func(out *bytes.Buffer) {
	stereoCfg := stereo.SmallConfig()
	stereoCfg.Width, stereoCfg.Height, stereoCfg.Sweeps = 256, 256, 14
	sarCfg := sar.SmallConfig()
	sarCfg.Apertures, sarCfg.SamplesPerAperture = 64, 4096
	sarCfg.ImageSize, sarCfg.BPAperturesPerIter = 32, 16

	return map[string]func(out *bytes.Buffer){
		"synthetic": func(out *bytes.Buffer) {
			for _, cores := range []int{1, 4, 8} {
				for _, capW := range []float64{0, 260} {
					runNode(out, fmt.Sprintf("spin cores=%d cap=%.0f", cores, capW), cores, capW, multicore.NewSpinWork(150000))
					runNode(out, fmt.Sprintf("stream cores=%d cap=%.0f", cores, capW), cores, capW, multicore.NewStreamWork(48<<20))
				}
			}
		},
		"parallel": func(out *bytes.Buffer) {
			for _, cores := range []int{1, 4} {
				for _, capW := range []float64{0, 200} {
					runNode(out, fmt.Sprintf("stereo cores=%d cap=%.0f", cores, capW), cores, capW, parallel.NewStereo(stereoCfg))
					runNode(out, fmt.Sprintf("sar cores=%d cap=%.0f", cores, capW), cores, capW, parallel.NewSAR(sarCfg))
				}
			}
		},
		"serving": func(out *bytes.Buffer) {
			pts, err := core.RunServingStudy(core.ServingStudyConfig{
				ServingFloorPState: 2,
				SLO:                25 * simtime.Microsecond,
			})
			if err != nil {
				panic(err)
			}
			for _, p := range pts {
				for _, o := range []struct {
					policy string
					core.ServingOutcome
				}{{"fair", p.Fair}, {"priority", p.Priority}} {
					fmt.Fprintf(out, "cap=%.0f %s p99=%d violated=%v batchops=%d power=%b servingfreq=%b holds=%d breaks=%d steals=%d gating=%d gatestalls=%d gatestallps=%d\n",
						p.CapWatts, o.policy, int64(o.P99), o.SLOViolated, o.BatchOps, o.AvgPowerWatts,
						o.ServingFreqMHz, o.FloorHolds, o.FloorBreaks, o.BatchSteals,
						o.GatingLevel, o.DRAMGateStalls, int64(o.DRAMGateStallTime))
				}
			}
		},
	}
}

// TestMulticoreGolden is the N-core exactness contract, the analogue
// of machine's TestRunGolden: every result field, summed counter,
// per-core busy time, controller statistic and final ladder position
// of the multi-core runs the repository reports, byte for byte. The
// files are regenerated (-update) only together with the semantic
// change that moves them.
func TestMulticoreGolden(t *testing.T) {
	for file, render := range goldenFiles() {
		t.Run(file, func(t *testing.T) {
			t.Parallel()
			var got bytes.Buffer
			render(&got)
			path := filepath.Join("testdata", file+".golden")
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

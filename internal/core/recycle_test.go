package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"nodecap/internal/cache"
	"nodecap/internal/machine"
	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
)

// smallSweeps are the paper's two applications at unit-test size, over
// caps that reach from DVFS alone to the fully gated ladder.
func smallSweeps(caps []float64, trials int) map[string]Experiment {
	mk := func(newWorkload func() machine.Workload) Experiment {
		return Experiment{NewWorkload: newWorkload, Caps: caps, Trials: trials}
	}
	return map[string]Experiment{
		"stereo": mk(func() machine.Workload { return stereo.New(stereo.SmallConfig()) }),
		"sire":   mk(func() machine.Workload { return sar.New(sar.SmallConfig()) }),
	}
}

// freshSweep is Run as it was before machines were recycled, kept as
// the reference: one machine.New and one NewWorkload per grid point,
// in grid order.
func freshSweep(t *testing.T, e Experiment) SweepResult {
	t.Helper()
	if err := e.defaults(); err != nil {
		t.Fatal(err)
	}
	rows := 1 + len(e.Caps)
	runs := make([]machine.RunResult, 0, rows*e.Trials)
	for row := 0; row < rows; row++ {
		var capWatts float64
		if row > 0 {
			capWatts = e.Caps[row-1]
		}
		for trial := 0; trial < e.Trials; trial++ {
			m := machine.New(e.MachineConfig(uint64(row+1)*1000 + uint64(trial)))
			m.SetPolicy(capWatts)
			runs = append(runs, m.RunWorkload(e.NewWorkload()))
		}
	}
	out := SweepResult{Workload: e.NewWorkload().Name()}
	out.Baseline = e.reduceCap(0, "baseline", runs[:e.Trials])
	for i, cap := range e.Caps {
		out.Capped = append(out.Capped,
			e.reduceCap(cap, fmt.Sprintf("%.0f", cap), runs[(i+1)*e.Trials:(i+2)*e.Trials]))
	}
	return out
}

// TestRecycledSweepEqualsFresh: a sweep whose machines are built over
// one another's buffers, sequentially and on 8 workers, is deep-equal
// to the same grid on fresh machines and fresh inputs.
func TestRecycledSweepEqualsFresh(t *testing.T) {
	for name, e := range smallSweeps([]float64{150, 130, 120}, 2) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := freshSweep(t, e)
			for _, par := range []int{1, 8} {
				e.Parallelism = par
				got, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Parallelism %d: recycled sweep differs from fresh machines:\ngot:  %+v\nwant: %+v", par, got, want)
				}
			}
		})
	}
}

// slabSetBytes is what one machine's cache slabs occupy: per line a
// tag word and an LRU stamp.
func slabSetBytes() uint64 {
	h := machine.Romley().Hierarchy
	var lines int
	for _, c := range []cache.Config{h.L1I, h.L1D, h.L2, h.L3} {
		lines += c.SizeBytes / c.LineBytes
	}
	return uint64(lines) * 16
}

// sweepAllocBytes reports what one Run of e allocates. It must not run
// beside other tests: the counter is the process's.
func sweepAllocBytes(t *testing.T, e Experiment) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSweepAllocBudget holds a sweep to its memory model (DESIGN §8):
// slabs are built once per worker, and what a run adds after that —
// the machine's small parts, a fork's outputs, a result — stays under
// perRunBudget, a twentieth of one slab set.
func TestSweepAllocBudget(t *testing.T) {
	const perRunBudget = 256 << 10
	slabs := slabSetBytes()
	caps := []float64{155, 150, 145, 140, 135, 130, 125, 120, 115, 110, 105}
	for name, e := range smallSweeps(nil, 1) {
		e.Parallelism = 1
		e.Caps = caps[:3]
		short := sweepAllocBytes(t, e)
		e.Caps = caps
		long := sweepAllocBytes(t, e)
		extraRuns := uint64(len(caps) - 3)
		if perRun := (long - short) / extraRuns; long < short || perRun > perRunBudget {
			t.Errorf("%s: %d more runs allocate %d B each (%d → %d B a sweep), budget %d; one slab set is %d",
				name, extraRuns, perRun, short, long, perRunBudget, slabs)
		}
		// On two workers: the second worker's slab set on top of the
		// short sweep's one, never a set per run.
		e.Parallelism = 2
		runs := uint64(1 + len(caps))
		if got, limit := sweepAllocBytes(t, e), short+slabs+runs*perRunBudget; got > limit {
			t.Errorf("%s: a %d-run sweep on 2 workers allocates %d B, over %d = the short sweep, one more slab set and the per-run budget", name, runs, got, limit)
		}
	}
}

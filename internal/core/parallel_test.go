package core

import (
	"reflect"
	"testing"

	"nodecap/internal/machine"
)

// TestParallelSweepDeterminism is the regression guarantee behind the
// Parallelism field: the same experiment run with 8 workers must
// produce a SweepResult deep-equal to the sequential schedule — same
// per-trial seeds, same counters, same averaged statistics, bit for
// bit. Any drift here means a run read another run's seed or the
// reduction left grid order — or, on the forked path, that two runs
// shared something one of them wrote.
func TestParallelSweepDeterminism(t *testing.T) {
	for name, newWorkload := range map[string]func() machine.Workload{
		"plain":  func() machine.Workload { return &miniWork{iters: 250000} },
		"forked": func() machine.Workload { return newForkWork(100000) },
	} {
		t.Run(name, func(t *testing.T) {
			mk := func(par int) Experiment {
				e := miniExperiment([]float64{150, 135, 120}, 3)
				e.NewWorkload = newWorkload
				e.Parallelism = par
				return e
			}
			seq, err := mk(1).Run()
			if err != nil {
				t.Fatal(err)
			}
			par, err := mk(8).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("parallel sweep diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}

// TestParallelismDefaultsSaturate pins the contract that an unset
// Parallelism means "use the whole host", not "sequential": defaults()
// must leave the zero value alone for pool.Workers to resolve.
func TestParallelismDefaultsSaturate(t *testing.T) {
	e := miniExperiment([]float64{150}, 1)
	if err := e.defaults(); err != nil {
		t.Fatal(err)
	}
	if e.Parallelism != 0 {
		t.Errorf("defaults() set Parallelism = %d, want 0 (GOMAXPROCS)", e.Parallelism)
	}
}

// Package core implements the paper's experimental methodology as a
// library: run a workload under a sweep of node power caps, several
// trials per cap, average every metric, and compare against the
// uncapped baseline — the procedure behind Tables I and II and
// Figures 1 and 2.
package core

import (
	"fmt"
	"sync"

	"nodecap/internal/machine"
	"nodecap/internal/pool"
	"nodecap/internal/simtime"
	"nodecap/internal/stats"
)

// PaperCaps is the cap schedule of the study: 160 down to 120 W in
// 5 W steps (Section III).
func PaperCaps() []float64 {
	return []float64{160, 155, 150, 145, 140, 135, 130, 125, 120}
}

// Experiment describes one workload's cap sweep.
type Experiment struct {
	// NewWorkload builds a fresh workload instance per run. The
	// workload input must be identical across runs (the paper feeds
	// every trial the same input).
	NewWorkload func() machine.Workload
	// MachineConfig builds the per-trial machine configuration; the
	// seed varies per (cap, trial) so trials differ in phase like real
	// repetitions.
	MachineConfig func(seed uint64) machine.Config
	// Caps is the cap schedule in watts (baseline is always run and
	// need not be listed). Defaults to PaperCaps.
	Caps []float64
	// Trials per cap; the paper uses 5.
	Trials int
	// Parallelism bounds how many (cap, trial) simulations run
	// concurrently: <= 0 selects GOMAXPROCS, 1 forces the sequential
	// schedule. Every run derives its seed from its (cap, trial) grid
	// position and trial results reduce in grid order, so the sweep
	// result is bit-identical at every parallelism level. NewWorkload
	// and MachineConfig must be safe for concurrent calls when
	// Parallelism permits more than one worker (pure constructors over
	// shared read-only configuration are).
	Parallelism int
}

// Defaults fills unset fields.
func (e *Experiment) defaults() error {
	if e.NewWorkload == nil {
		return fmt.Errorf("core: NewWorkload is required")
	}
	if e.MachineConfig == nil {
		e.MachineConfig = func(seed uint64) machine.Config {
			cfg := machine.Romley()
			cfg.Seed = seed
			return cfg
		}
	}
	if len(e.Caps) == 0 {
		e.Caps = PaperCaps()
	}
	if e.Trials <= 0 {
		e.Trials = 5
	}
	return nil
}

// CounterMeans holds trial-averaged counter values.
type CounterMeans struct {
	L1Misses   float64 // L1 data-cache misses (the Table II "L1 Misses" column)
	L2Misses   float64
	L3Misses   float64
	DTLBMisses float64
	ITLBMisses float64
	Committed  float64
	Issued     float64
	Loads      float64
	Stores     float64
	Cycles     float64
}

// CapResult is the averaged outcome at one cap (or the baseline).
type CapResult struct {
	Label    string  // "baseline", "160", ...
	CapWatts float64 // 0 for baseline

	PowerWatts   float64
	EnergyJoules float64
	FreqMHz      float64
	TimeSeconds  float64
	Time         simtime.Duration

	Counters CounterMeans

	// Spread diagnostics across trials.
	TimeStddev float64
}

// Diff holds the Table II percent-difference columns for one cap
// against the baseline.
type Diff struct {
	Power, Energy, Freq, Time float64
	L1, L2, L3, DTLB, ITLB    float64
}

// SweepResult is one workload's full sweep.
type SweepResult struct {
	Workload string
	Baseline CapResult
	Capped   []CapResult
}

// Run executes the experiment: the baseline plus every cap, Trials
// runs each. The full (cap, trial) grid fans out across a bounded
// worker pool (see Parallelism); each run lands in its pre-indexed
// slot and each cap's trials reduce in trial order, so the result is
// identical to the sequential schedule no matter how the goroutines
// interleave.
//
// The workload input is built once per sweep where the workload allows
// it: NewWorkload is called once up front, and if what it returns is a
// machine.Forker every run takes a Fork of that one instance (Fork,
// like NewWorkload, must then be safe for concurrent calls); otherwise
// every run calls NewWorkload again.
//
// The machines' large buffers are built once per worker: a run's
// machine is recycled from one an earlier run has finished with
// (machine.Recycle), so a sweep allocates at most Parallelism sets of
// cache slabs however long its grid. The list of finished machines is
// a local of this call: nothing outlives Run.
func (e Experiment) Run() (SweepResult, error) {
	if err := e.defaults(); err != nil {
		return SweepResult{}, err
	}
	var out SweepResult
	proto := e.NewWorkload()
	out.Workload = proto.Name()
	newRun := e.NewWorkload
	if f, ok := proto.(machine.Forker); ok {
		newRun = f.Fork
	}

	// Grid row 0 is the baseline (seed base 1, as the sequential
	// schedule always had); row i+1 is Caps[i] (seed base i+2).
	rows := 1 + len(e.Caps)
	runs := make([]machine.RunResult, rows*e.Trials)
	var (
		mu       sync.Mutex
		finished []*machine.Machine
	)
	pool.ForEach(len(runs), e.Parallelism, func(job int) {
		row, trial := job/e.Trials, job%e.Trials
		var capWatts float64
		if row > 0 {
			capWatts = e.Caps[row-1]
		}
		seed := uint64(row+1)*1000 + uint64(trial)
		var old *machine.Machine
		mu.Lock()
		if n := len(finished); n > 0 {
			old, finished = finished[n-1], finished[:n-1]
		}
		mu.Unlock()
		m := machine.Recycle(e.MachineConfig(seed), old)
		m.SetPolicy(capWatts)
		runs[job] = m.RunWorkload(newRun())
		mu.Lock()
		finished = append(finished, m)
		mu.Unlock()
	})

	out.Baseline = e.reduceCap(0, "baseline", runs[:e.Trials])
	for i, cap := range e.Caps {
		label := fmt.Sprintf("%.0f", cap)
		out.Capped = append(out.Capped,
			e.reduceCap(cap, label, runs[(i+1)*e.Trials:(i+2)*e.Trials]))
	}
	return out, nil
}

// reduceCap averages one cap's trial runs, in trial order.
func (e Experiment) reduceCap(capWatts float64, label string, trials []machine.RunResult) CapResult {
	var (
		power, energy, freq, tsec                        []float64
		l1, l2, l3, dtlb, itlb, com, iss, lds, strs, cyc []float64
		totalTime                                        simtime.Duration
	)
	for _, r := range trials {
		power = append(power, r.AvgPowerWatts)
		energy = append(energy, r.EnergyJoules)
		freq = append(freq, r.AvgFreqMHz)
		tsec = append(tsec, r.ExecTime.Seconds())
		totalTime += r.ExecTime
		c := r.Counters
		l1 = append(l1, float64(c.L1DMisses))
		l2 = append(l2, float64(c.L2Misses))
		l3 = append(l3, float64(c.L3Misses))
		dtlb = append(dtlb, float64(c.DTLBMisses))
		itlb = append(itlb, float64(c.ITLBMisses))
		com = append(com, float64(c.InstructionsCommitted))
		iss = append(iss, float64(c.InstructionsIssued))
		lds = append(lds, float64(c.Loads))
		strs = append(strs, float64(c.Stores))
		cyc = append(cyc, float64(c.Cycles))
	}
	return CapResult{
		Label:        label,
		CapWatts:     capWatts,
		PowerWatts:   stats.Mean(power),
		EnergyJoules: stats.Mean(energy),
		FreqMHz:      stats.Mean(freq),
		TimeSeconds:  stats.Mean(tsec),
		Time:         totalTime / simtime.Duration(e.Trials),
		TimeStddev:   stats.Stddev(tsec),
		Counters: CounterMeans{
			L1Misses:   stats.Mean(l1),
			L2Misses:   stats.Mean(l2),
			L3Misses:   stats.Mean(l3),
			DTLBMisses: stats.Mean(dtlb),
			ITLBMisses: stats.Mean(itlb),
			Committed:  stats.Mean(com),
			Issued:     stats.Mean(iss),
			Loads:      stats.Mean(lds),
			Stores:     stats.Mean(strs),
			Cycles:     stats.Mean(cyc),
		},
	}
}

// DiffVsBaseline computes the percent-difference columns for r.
func (s SweepResult) DiffVsBaseline(r CapResult) Diff {
	b := s.Baseline
	return Diff{
		Power:  stats.PercentDiff(r.PowerWatts, b.PowerWatts),
		Energy: stats.PercentDiff(r.EnergyJoules, b.EnergyJoules),
		Freq:   stats.PercentDiff(r.FreqMHz, b.FreqMHz),
		Time:   stats.PercentDiff(r.TimeSeconds, b.TimeSeconds),
		L1:     stats.PercentDiff(r.Counters.L1Misses, b.Counters.L1Misses),
		L2:     stats.PercentDiff(r.Counters.L2Misses, b.Counters.L2Misses),
		L3:     stats.PercentDiff(r.Counters.L3Misses, b.Counters.L3Misses),
		DTLB:   stats.PercentDiff(r.Counters.DTLBMisses, b.Counters.DTLBMisses),
		ITLB:   stats.PercentDiff(r.Counters.ITLBMisses, b.Counters.ITLBMisses),
	}
}

// All returns baseline plus capped results in table order.
func (s SweepResult) All() []CapResult {
	out := make([]CapResult, 0, len(s.Capped)+1)
	out = append(out, s.Baseline)
	out = append(out, s.Capped...)
	return out
}

// Series extracts one metric across All() in order, for the
// normalized figures.
func (s SweepResult) Series(metric func(CapResult) float64) []float64 {
	all := s.All()
	out := make([]float64, len(all))
	for i, r := range all {
		out[i] = metric(r)
	}
	return out
}

// Package multicore implements the first item of the paper's future
// work: "explore how multi-core applications are affected by power
// capping".
//
// It runs one shard of a parallel workload on each core of a
// machine.Machine under the node's single power cap. The node itself —
// private L1/L2/TLBs per core, the shared L3 and DRAM channel,
// package-level DVFS and gating, the power model and the control loop
// — is package machine's; what lives here is the parallel-workload
// contract and the scheduler that interleaves its shards.
//
// The scheduler always advances the running core with the earliest
// local clock, so shared-resource timestamps (DRAM occupancy, control
// events) observe a near-monotonic global time.
package multicore

import (
	"fmt"

	"nodecap/internal/machine"
	"nodecap/internal/simtime"
)

// Shard is one core's portion of a parallel workload: a resumable
// iterator. Step issues a small batch of operations (an inner-loop
// iteration) against its core and reports whether more work remains.
// Steps on different shards interleave in simulated-time order.
type Shard interface {
	Step(c *machine.CoreHandle) bool
}

// Workload is a parallel program: it splits itself into one shard per
// core and describes its instruction footprint.
type Workload interface {
	Name() string
	CodePages() int
	// Shards lays out shared data with alloc and returns exactly one
	// shard per core.
	Shards(cores int, alloc func(size int) uint64) []Shard
}

// Result carries one parallel run's metrics: the node's, plus what
// only a multi-core run has.
type Result struct {
	machine.RunResult
	PerCoreBusy []simtime.Duration

	// Per-tier busy-time-weighted average frequencies; zero unless the
	// machine was built with HighPriorityCores in (0, Cores).
	ServingAvgFreqMHz float64
	BatchAvgFreqMHz   float64
}

// SpeedupOver computes wall-clock speedup relative to another run of
// the same total work (typically the single-core run).
func (r Result) SpeedupOver(single Result) float64 {
	if r.ExecTime <= 0 {
		return 0
	}
	return single.ExecTime.Seconds() / r.ExecTime.Seconds()
}

// Run executes w across all of m's cores to completion.
func Run(m *machine.Machine, w Workload) Result {
	cores := m.Cores()
	shards := w.Shards(len(cores), m.Alloc)
	if len(shards) != len(cores) {
		panic(fmt.Sprintf("multicore: workload produced %d shards for %d cores",
			len(shards), len(cores)))
	}
	res := Result{RunResult: m.RunWorkload(schedule{w, shards})}
	for _, c := range cores {
		res.PerCoreBusy = append(res.PerCoreBusy, c.Core().BusyTime())
	}
	if hp := m.Config().HighPriorityCores; hp > 0 && hp < len(cores) {
		res.ServingAvgFreqMHz = cores[0].Core().AverageFreqMHz()
		res.BatchAvgFreqMHz = cores[hp].Core().AverageFreqMHz()
	}
	return res
}

// schedule is a parallel workload as the machine runs it: one
// machine.Workload whose Run interleaves the shards.
type schedule struct {
	Workload
	shards []Shard
}

// Run steps the shards in earliest-clock order until every one has
// finished.
func (s schedule) Run(m *machine.Machine) {
	cores := m.Cores()
	start := m.Now()
	for i, c := range cores {
		// Stagger start phases slightly so cores do not step in lockstep.
		c.Unpark(start + simtime.Duration(i)*137*simtime.Nanosecond)
	}
	for {
		var next *machine.CoreHandle
		for _, c := range cores {
			if !c.Parked() && (next == nil || c.Now() < next.Now()) {
				next = c
			}
		}
		if next == nil {
			return
		}
		if !s.shards[next.ID()].Step(next) {
			next.Park()
		}
	}
}

package machine

import (
	"nodecap/internal/bmc"
	"nodecap/internal/counters"
	"nodecap/internal/simtime"
)

// Workload is a program the machine can execute: it drives the
// Compute/Load/Store API against addresses it laid out with Alloc.
type Workload interface {
	// Name identifies the workload in results and reports.
	Name() string
	// CodePages is the instruction-footprint estimate (4 KiB pages)
	// used by the machine's fetch synthesis.
	CodePages() int
	// Run executes the workload to completion on m.
	Run(m *Machine)
}

// Forker is a Workload whose input is expensive to build and safe to
// share. Fork returns a fresh runnable instance over the receiver's
// input — sharing what Run only reads, copying what it writes — so a
// sweep synthesizes its scene or radar returns once, not once per run.
// The receiver is a prototype that has not itself been run; Fork may
// be called on it from several goroutines at once, and the instances
// it returns run concurrently with one another.
type Forker interface {
	Workload
	Fork() Workload
}

// RunResult carries every metric the paper reports for one run.
type RunResult struct {
	Workload string
	// CapWatts is the enforced cap; 0 means uncapped baseline.
	CapWatts float64

	ExecTime      simtime.Duration // wall time: the slowest core's
	AvgPowerWatts float64
	EnergyJoules  float64
	AvgFreqMHz    float64

	Counters counters.Snapshot // summed over the cores; L3 shared
	BMCStats bmc.Stats
	// FinalGatingLevel is the ladder position when the run finished.
	FinalGatingLevel int
}

// RunWorkload executes w under the machine's current policy and
// returns the measured metrics. The sequence mirrors the study's
// procedure: the policy is already enforced, the node idles briefly
// (letting the controller settle against idle power), then the
// application runs while the meter and counters record. w runs on
// core 0; a workload that spreads over the other cores (package
// multicore) unparks them itself and parks each as it finishes.
func (m *Machine) RunWorkload(w Workload) RunResult {
	m.Unpark(m.Now()) // core 0, wherever an earlier parallel run left it
	// Idle lead-in: four control periods, as between real trials.
	m.AdvanceIdle(4 * m.cfg.BMC.ControlPeriod)

	m.SetCodeFootprint(w.CodePages())
	m.meter.Reset()
	m.uncore.ResetStats()
	for _, c := range m.cores {
		c.core.ResetCounters()
	}
	m.ctrl.ResetStats()

	start := m.Now()
	m.updatePower(start)
	m.meter.Record(start, m.curPower)
	m.running = true

	w.Run(m)
	m.drainPendingStall()

	end := m.Now()
	m.running = false
	m.updatePower(end)
	m.meter.Record(end, m.curPower)

	return RunResult{
		Workload:         w.Name(),
		CapWatts:         m.ctrl.Policy().CapWatts,
		ExecTime:         end - start,
		AvgPowerWatts:    m.meter.AverageWatts(),
		EnergyJoules:     m.meter.EnergyJoules(),
		AvgFreqMHz:       m.core.AverageFreqMHz(),
		Counters:         m.CounterSnapshot(),
		BMCStats:         m.ctrl.Stats(),
		FinalGatingLevel: m.gatingLevel,
	}
}

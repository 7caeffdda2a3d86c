// The serving study extends the paper's methodology to the mixed fleet
// question: the paper caps a node and watches one application suffer
// uniformly; production sockets run latency-critical serving next to
// batch work, and the same cap can either be spread fairly (every core
// slows together) or steered (batch cores absorb it, serving cores
// keep a frequency floor). The study sweeps the paper's cap ladder
// under both policies and reports the p99-latency SLO verdict and the
// batch throughput each policy paid for it.

package core

import (
	"fmt"

	"nodecap/internal/machine"
	"nodecap/internal/multicore"
	"nodecap/internal/simtime"
	"nodecap/internal/workloads/serving"
)

// ServingStudyConfig describes one fair-vs-priority cap sweep.
type ServingStudyConfig struct {
	// Cores is the socket size; ServingCores of them (the leading ones)
	// run the latency-critical service.
	Cores        int
	ServingCores int
	// ServingFloorPState is the priority policy's serving-tier floor.
	ServingFloorPState int
	// SLO is the p99 latency objective for the serving tier.
	SLO simtime.Duration
	// Caps is the cap schedule; defaults to PaperCaps.
	Caps []float64
	// Workload tunes the serving/batch mix; zero value takes
	// serving.DefaultConfig with ServingCores patched in.
	Workload serving.Config
	// Base is the per-node machine configuration; zero PStates selects
	// machine.Romley().
	Base machine.Config
}

func (c *ServingStudyConfig) defaults() error {
	if c.Cores <= 0 {
		c.Cores = 2
	}
	if c.ServingCores <= 0 {
		c.ServingCores = 1
	}
	if c.ServingCores >= c.Cores {
		return fmt.Errorf("core: %d serving cores need a socket larger than %d", c.ServingCores, c.Cores)
	}
	if c.SLO <= 0 {
		return fmt.Errorf("core: serving study needs a positive SLO")
	}
	if len(c.Caps) == 0 {
		c.Caps = PaperCaps()
	}
	if c.Workload.RequestsPerCore == 0 {
		c.Workload = serving.DefaultConfig()
	}
	c.Workload.ServingCores = c.ServingCores
	if c.Base.PStates == nil {
		c.Base = machine.Romley()
	}
	return nil
}

// ServingOutcome is one policy's result at one cap.
type ServingOutcome struct {
	P99           simtime.Duration
	SLOViolated   bool
	BatchOps      uint64
	AvgPowerWatts float64
	// ServingFreqMHz is the serving cores' busy-time-weighted average
	// frequency (the whole package under fair share).
	ServingFreqMHz float64
	// Priority-controller activity; always zero under fair share.
	FloorHolds  uint64
	FloorBreaks uint64
	BatchSteals uint64
	// GatingLevel is where the run left the package-wide sub-DVFS
	// ladder, which gates the shared L3 and memory controller; the DRAM
	// fields count the accesses that arrived in the duty-cycled
	// controller's off window and the time they waited there.
	GatingLevel       int
	DRAMGateStalls    uint64
	DRAMGateStallTime simtime.Duration
}

// ServingPoint pairs the two policies at one cap.
type ServingPoint struct {
	CapWatts float64
	Fair     ServingOutcome
	Priority ServingOutcome
}

// RunServingStudy sweeps cfg.Caps under fair-share and priority-aware
// capping. Runs are deterministic: same config, same outcome.
func RunServingStudy(cfg ServingStudyConfig) ([]ServingPoint, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	fair := cfg.Base
	fair.Cores = cfg.Cores
	prio := fair
	prio.HighPriorityCores = cfg.ServingCores
	prio.ServingFloorPState = cfg.ServingFloorPState
	out := make([]ServingPoint, 0, len(cfg.Caps))
	for _, cap := range cfg.Caps {
		out = append(out, ServingPoint{
			CapWatts: cap,
			Fair:     runServingOnce(fair, cfg.Workload, cap, cfg.SLO),
			Priority: runServingOnce(prio, cfg.Workload, cap, cfg.SLO),
		})
	}
	return out, nil
}

func runServingOnce(mCfg machine.Config, wCfg serving.Config, capWatts float64, slo simtime.Duration) ServingOutcome {
	m := machine.New(mCfg)
	if capWatts > 0 {
		_ = m.SetPolicy(capWatts) // advisory ErrInfeasibleCap: still applied
	}
	w := serving.New(wCfg)
	res := multicore.Run(m, w)
	st, ram := res.BMCStats, m.Hierarchy().DRAM().Stats()
	o := ServingOutcome{
		P99:               w.P99(),
		BatchOps:          w.BatchOps(),
		AvgPowerWatts:     res.AvgPowerWatts,
		ServingFreqMHz:    res.AvgFreqMHz, // core 0: the serving tier, or the whole package
		FloorHolds:        st.FloorHolds,
		FloorBreaks:       st.FloorBreaks,
		BatchSteals:       st.BatchSteals,
		GatingLevel:       res.FinalGatingLevel,
		DRAMGateStalls:    ram.GateStalls,
		DRAMGateStallTime: ram.GateStallTime,
	}
	o.SLOViolated = o.P99 > slo
	return o
}

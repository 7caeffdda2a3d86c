package multicore

import (
	"testing"

	"nodecap/internal/machine"
	"nodecap/internal/simtime"
)

// prioShard burns compute; the simplest shard that keeps a core busy.
type prioShard struct{ left int }

func (s *prioShard) Step(c *machine.CoreHandle) bool {
	if s.left <= 0 {
		return false
	}
	s.left--
	c.Compute(200, 160)
	c.Load(uint64(1<<30) + uint64(s.left%1024)*64)
	return true
}

type prioWorkload struct{ steps int }

func (w *prioWorkload) Name() string   { return "prio-burn" }
func (w *prioWorkload) CodePages() int { return 8 }
func (w *prioWorkload) Shards(cores int, alloc func(int) uint64) []Shard {
	out := make([]Shard, cores)
	for i := range out {
		out[i] = &prioShard{left: w.steps}
	}
	return out
}

// TestPriorityMachineStealsBatchFirst caps a 1+1 machine at a level
// the batch tier can absorb and checks the serving tier keeps its
// frequency while the batch tier pays.
func TestPriorityMachineStealsBatchFirst(t *testing.T) {
	cfg := romley(2)
	cfg.HighPriorityCores = 1
	cfg.ServingFloorPState = 2
	m := machine.New(cfg)
	if err := m.SetPolicy(165); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	res := Run(m, &prioWorkload{steps: 30000})

	if res.ServingAvgFreqMHz == 0 || res.BatchAvgFreqMHz == 0 {
		t.Fatalf("priority run did not report per-tier frequencies: %+v", res)
	}
	if res.ServingAvgFreqMHz <= res.BatchAvgFreqMHz {
		t.Fatalf("serving tier (%.0f MHz) not faster than batch tier (%.0f MHz) under a 165 W cap",
			res.ServingAvgFreqMHz, res.BatchAvgFreqMHz)
	}
	st := res.BMCStats
	if st.BatchSteals == 0 {
		t.Fatalf("no batch steals under a 165 W cap: %+v", st)
	}
	if st.FloorBreaks != 0 {
		t.Fatalf("feasible cap broke the serving floor: %+v", st)
	}
	// The serving tier must never have been held below its floor:
	// its busy-time-average frequency must beat the floor P-state's.
	floorMHz := float64(cfg.PStates[cfg.ServingFloorPState].FreqMHz)
	if res.ServingAvgFreqMHz < floorMHz {
		t.Fatalf("serving average %.0f MHz below the %0.f MHz floor with zero floor breaks",
			res.ServingAvgFreqMHz, floorMHz)
	}
}

// TestUniformMachineHasNoTierSurface checks the fair-share machine is
// untouched by the priority extension: no per-tier result fields, no
// batch gating.
func TestUniformMachineHasNoTierSurface(t *testing.T) {
	m := machine.New(romley(2))
	if err := m.SetPolicy(150); err == nil {
		// 150 W may or may not be infeasible for two busy cores; either
		// way the call must work. Nothing to assert on the error.
		_ = err
	}
	res := Run(m, &prioWorkload{steps: 10000})
	if res.ServingAvgFreqMHz != 0 || res.BatchAvgFreqMHz != 0 {
		t.Fatalf("uniform machine reported tier frequencies: %+v", res)
	}
	if m.BatchGatingLevel() != 0 {
		t.Fatalf("uniform machine engaged batch gating: %d", m.BatchGatingLevel())
	}
	st := res.BMCStats
	if st.BatchSteals != 0 || st.FloorHolds != 0 || st.FloorBreaks != 0 {
		t.Fatalf("uniform machine recorded priority stats: %+v", st)
	}
}

// TestPriorityConfigValidation rejects impossible tier splits.
func TestPriorityConfigValidation(t *testing.T) {
	for _, bad := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HighPriorityCores=%d on 2 cores did not panic", bad)
				}
			}()
			cfg := romley(2)
			cfg.HighPriorityCores = bad
			machine.New(cfg)
		}()
	}
}

// TestAdvanceIdleAccountsNothing checks a sleeping core's time moves
// its clock but neither the busy nor the stall books, and that the
// power model sees it as time out of C0.
func TestAdvanceIdleAccountsNothing(t *testing.T) {
	m := machine.New(romley(1))
	c := m.Cores()[0]
	before := c.Now()
	c.Sleep(3 * simtime.Millisecond)
	if c.Now()-before != 3*simtime.Millisecond {
		t.Fatalf("clock advanced %v, want 3ms", c.Now()-before)
	}
	if c.Core().BusyTime() != 0 || c.Core().StallTime() != 0 {
		t.Fatalf("sleep booked busy=%v stall=%v", c.Core().BusyTime(), c.Core().StallTime())
	}
	c.Sleep(-simtime.Millisecond)
	if c.Now()-before != 3*simtime.Millisecond {
		t.Fatal("negative sleep moved the clock")
	}

	// One meter interval spent a tenth computing and the rest asleep
	// must read well below one spent computing throughout (the uncore
	// clock runs either way, so not a tenth of it).
	window := func(m *machine.Machine, busy simtime.Duration) float64 {
		m.SetBusy(true)
		c, samples := m.Cores()[0], m.Meter().Len()
		for end := c.Now() + busy; c.Now() < end; {
			c.Compute(100, 80)
		}
		for m.Meter().Len() == samples {
			c.Sleep(simtime.Microsecond)
		}
		return m.PowerWatts()
	}
	interval := m.Config().MeterInterval
	dozing := window(m, interval/10)
	awake := window(machine.New(romley(1)), interval)
	if idle := m.Config().Power.IdleWatts; dozing > idle+(awake-idle)/2 {
		t.Fatalf("a core asleep 90%% of the window drew %.1f W against %.1f W awake (idle %.1f W)", dozing, awake, idle)
	}
}

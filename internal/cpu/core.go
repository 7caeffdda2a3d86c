package cpu

import (
	"fmt"

	"nodecap/internal/simtime"
)

// Core models one processor core's power-management state plus the
// cycle/instruction accounting the study's counters are built on.
// Memory-hierarchy timing lives in internal/mem; the machine package
// drives both.
type Core struct {
	id      int
	pstates PStateTable
	cstates []CState

	curP int // index into pstates
	curC int // index into cstates
	// freqMHz is pstates[curP].FreqMHz, refreshed by SetPState: the
	// accounting below reads it on every simulated operation.
	freqMHz int

	// Time-weighted frequency accumulation for the "Average
	// Frequency" column of Table II.
	freqTimeProduct float64          // Σ freqMHz * dt(ps)
	busyTime        simtime.Duration // time attributed to execution
	stallTime       simtime.Duration // time stalled on memory

	transitions uint64 // P-state changes

	// Architectural counters (the PAPI events of Section III).
	InstructionsCommitted uint64
	InstructionsExecuted  uint64 // includes speculative work
	LoadsExecuted         uint64
	StoresExecuted        uint64
	Cycles                uint64
}

// NewCore builds a core with the given P-state table at P0/C0.
func NewCore(id int, pstates PStateTable, cstates []CState) (*Core, error) {
	if err := pstates.Validate(); err != nil {
		return nil, err
	}
	if len(cstates) == 0 {
		return nil, fmt.Errorf("cpu: core %d: no C-states", id)
	}
	return &Core{id: id, pstates: pstates, cstates: cstates, freqMHz: pstates[0].FreqMHz}, nil
}

// MustCore is NewCore for static configurations.
func MustCore(id int, pstates PStateTable, cstates []CState) *Core {
	c, err := NewCore(id, pstates, cstates)
	if err != nil {
		panic(err)
	}
	return c
}

// ID reports the core number.
func (c *Core) ID() int { return c.id }

// PStates returns the core's P-state table.
func (c *Core) PStates() PStateTable { return c.pstates }

// PState reports the current operating point.
func (c *Core) PState() PState { return c.pstates[c.curP] }

// FreqMHz reports the current operating point's frequency.
func (c *Core) FreqMHz() int { return c.freqMHz }

// PStateIndex reports the current P-state index.
func (c *Core) PStateIndex() int { return c.curP }

// SetPState moves the core to P-state index i (clamped to the table),
// returning the transition latency: Sandy Bridge voltage/frequency
// transitions stall the core for on the order of 10 µs.
func (c *Core) SetPState(i int) simtime.Duration {
	if i < 0 {
		i = 0
	}
	if i >= len(c.pstates) {
		i = len(c.pstates) - 1
	}
	if i == c.curP {
		return 0
	}
	c.curP = i
	c.freqMHz = c.pstates[i].FreqMHz
	c.transitions++
	return 10 * simtime.Microsecond
}

// Transitions reports how many P-state changes have occurred.
func (c *Core) Transitions() uint64 { return c.transitions }

// CState reports the current idle state.
func (c *Core) CState() CState { return c.cstates[c.curC] }

// EnterCState moves to the deepest C-state with Index <= idx,
// returning the wake latency that will be paid on the next EnterC0.
func (c *Core) EnterCState(idx int) {
	best := 0
	for i, s := range c.cstates {
		if s.Index <= idx {
			best = i
		}
	}
	c.curC = best
}

// Wake returns the core to C0, reporting the exit latency.
func (c *Core) Wake() simtime.Duration {
	wake := simtime.FromNanos(c.cstates[c.curC].WakeMicros * 1000)
	c.curC = 0
	return wake
}

// AccountBusy charges d of execution time at the current frequency:
// cycles advance and the time-weighted frequency average includes it.
func (c *Core) AccountBusy(d simtime.Duration) {
	c.busyTime += d
	f := c.freqMHz
	c.freqTimeProduct += float64(f) * float64(d)
	c.Cycles += uint64(d.CyclesAt(f))
}

// AccountStall charges d of memory-stall time. Stall cycles still tick
// (the paper computes execution time as cycle count x clock speed) and
// still weight the average frequency, but the machine's power model
// treats stalled time as low-activity.
func (c *Core) AccountStall(d simtime.Duration) {
	c.stallTime += d
	f := c.freqMHz
	c.freqTimeProduct += float64(f) * float64(d)
	c.Cycles += uint64(d.CyclesAt(f))
}

// BusyTime and StallTime report accumulated execution and stall time.
func (c *Core) BusyTime() simtime.Duration  { return c.busyTime }
func (c *Core) StallTime() simtime.Duration { return c.stallTime }

// AverageFreqMHz reports the time-weighted average frequency over all
// accounted time — the quantity in Table II's "Average Frequency"
// column (e.g., 2168 for a run dithered between 2100 and 2200 MHz).
func (c *Core) AverageFreqMHz() float64 {
	total := c.busyTime + c.stallTime
	if total == 0 {
		return float64(c.freqMHz)
	}
	return c.freqTimeProduct / float64(total)
}

// Activity reports the busy fraction of accounted time, the power
// model's demand input.
func (c *Core) Activity() float64 {
	total := c.busyTime + c.stallTime
	if total == 0 {
		return 0
	}
	return float64(c.busyTime) / float64(total)
}

// ResetCounters clears all counters and accounting but keeps the
// current P/C-state, mirroring a PAPI counter reset.
func (c *Core) ResetCounters() {
	c.freqTimeProduct = 0
	c.busyTime = 0
	c.stallTime = 0
	c.InstructionsCommitted = 0
	c.InstructionsExecuted = 0
	c.LoadsExecuted = 0
	c.StoresExecuted = 0
	c.Cycles = 0
}

package machine

import "testing"

// TestLoadSteadyStateZeroAlloc pins the simulator's end-to-end memory
// op (TLB lookups, three cache levels, DRAM timing, event pump) at
// zero steady-state allocations per op. Periodic machinery — meter
// sample appends, BMC control ticks — allocates only on slice growth,
// which amortizes to zero at this run count; anything that allocates
// per op fails the test.
func TestLoadSteadyStateZeroAlloc(t *testing.T) {
	m := New(Romley())
	base := m.Alloc(1 << 22)
	// Warm the hierarchy and the periodic-event slices first so the
	// measured window is steady state.
	for i := 0; i < 100000; i++ {
		m.Load(base + uint64(i%65536)*64)
	}
	var i uint64
	allocs := testing.AllocsPerRun(200000, func() {
		m.Load(base + uint64(i%65536)*64)
		i++
	})
	if allocs != 0 {
		t.Errorf("Machine.Load allocates %.1f times per op in steady state, want 0", allocs)
	}
}

// TestPeriodicEventsZeroAlloc pins the meter and BMC events at zero
// allocations per firing: each re-arms its one Event from its own
// callback. Nearly all of a sweep's allocations used to be the fresh
// closure and Event every firing built.
func TestPeriodicEventsZeroAlloc(t *testing.T) {
	m := New(Romley())
	if err := m.SetPolicy(140); err != nil { // capped: the firmware-overhead path runs too
		t.Fatal(err)
	}
	period := m.Config().BMC.ControlPeriod
	// Grow the meter's sample slice past what the measured window
	// appends, then empty it keeping the capacity.
	m.AdvanceIdle(2000 * period)
	m.Meter().Reset()
	ticks := m.BMC().Stats().Ticks
	allocs := testing.AllocsPerRun(5, func() { m.AdvanceIdle(100 * period) })
	if fired := m.BMC().Stats().Ticks - ticks; fired < 600 {
		t.Fatalf("only %d control ticks fired in the measured window, want 600", fired)
	}
	if allocs != 0 {
		t.Errorf("100 idle control periods allocate %.0f times, want 0", allocs)
	}
}

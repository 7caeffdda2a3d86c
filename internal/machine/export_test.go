package machine

import (
	"nodecap/internal/mem"
	"nodecap/internal/power"
)

// powerStateForTest rebuilds the power-model input for the machine's
// current posture with a fixed busy profile, so tests can compare
// ladder levels on power alone.
func powerStateForTest(m *Machine, g mem.GatedState) power.NodeState {
	return power.NodeState{
		FreqMHz:          m.core.FreqMHz(),
		VoltageMV:        m.core.PState().VoltageMV,
		ActiveCores:      1,
		Activity:         0.5,
		MemUtil:          0.2,
		L3WaysGated:      g.L3WaysGated,
		L2WaysGated:      g.L2WaysGated,
		L1WaysGated:      g.L1WaysGated,
		TLBGatedFraction: g.TLBGatedFraction,
		DRAMDuty:         dutyEquivalent(m.hier.DRAM().Gate()),
	}
}

package machine

import "nodecap/internal/simtime"

// plant adapts Machine to the bmc.Plant interface. It is a separate
// named type so the actuation surface the firmware sees stays explicit
// and narrow. DVFS and the gating ladder are package-wide.
type plant Machine

func (p *plant) m() *Machine { return (*Machine)(p) }

// PowerWatts reports the power estimate computed at the current
// control tick — the BMC's out-of-band sensor reading.
func (p *plant) PowerWatts() float64 { return p.m().curPower }

func (p *plant) PStateIndex() int { return p.m().core.PStateIndex() }
func (p *plant) NumPStates() int  { return len(p.m().cfg.PStates) }

// CapFloorWatts implements bmc.FloorReporter so the firmware can flag
// caps the platform cannot track.
func (p *plant) CapFloorWatts() float64 { return p.m().CapFloorWatts() }

// SetPState transitions every core (one package PLL).
func (p *plant) SetPState(i int) { setPState(p.m().cores, i) }

// setPState performs the DVFS transition on cores, posting its stall
// to the running ones (frequency changes halt the clock briefly).
func setPState(cores []*CoreHandle, i int) {
	for _, c := range cores {
		c.postStall(c.core.SetPState(i))
	}
}

func (p *plant) GatingLevel() int { return p.m().gatingLevel }

// ladderMax is the deepest hierarchy-gating level.
func (m *Machine) ladderMax() int { return len(m.cfg.Ladder) - 1 }

// MaxGatingLevel spans the hierarchy ladder plus any configured
// T-state (clock modulation) levels beyond it.
func (p *plant) MaxGatingLevel() int {
	m := p.m()
	return m.ladderMax() + len(m.cfg.TStates)
}

// ForceGatingLevel pins the hierarchy to ladder level l, bypassing the
// controller. Used by the gating-detection microbenchmarks' validation
// and by ablation studies; enabling a capping policy afterwards hands
// control back to the BMC.
func (m *Machine) ForceGatingLevel(l int) {
	(*plant)(m).SetGatingLevel(l)
}

// SetGatingLevel reconfigures the machine to escalation level l:
// hierarchy ladder levels first — every core's private structures,
// then the shared L3 and memory controller once — then (when
// configured) the T-state clock-modulation levels beyond them.
func (p *plant) SetGatingLevel(l int) {
	m := p.m()
	l = min(max(l, 0), p.MaxGatingLevel())
	if l == m.gatingLevel {
		return
	}
	m.gatingLevel = l

	now := m.Now()
	for _, c := range m.cores {
		m.gatePrivate(c, now)
	}
	m.uncore.ApplyGating(now, m.cfg.Ladder[min(l, m.ladderMax())])
	duty := 1.0
	if l > m.ladderMax() {
		duty = m.cfg.TStates[l-m.ladderMax()-1]
	}
	for _, c := range m.cores {
		c.clockDuty = duty
	}
}

// gatePrivate puts core c's private caches and TLBs at the ladder
// level that governs them — a batch core sits at the deeper of the
// package level and the batch-only level — and charges a running core
// the reconfiguration: way flushes and TLB shootdowns stall it briefly.
func (m *Machine) gatePrivate(c *CoreHandle, now simtime.Duration) {
	l := min(m.gatingLevel, m.ladderMax())
	if m.tierOf(c.id) == 1 && m.batchGatingLevel > l {
		l = m.batchGatingLevel
	}
	c.hier.ApplyPrivateGating(now, m.cfg.Ladder[l])
	c.postStall(5 * simtime.Microsecond)
}

// priorityPlant extends plant with the two-tier DVFS surface. It is
// only installed when the machine is configured with a serving tier,
// so the BMC's PriorityPlant type assertion selects the escalation
// path.
type priorityPlant struct{ *plant }

func (p priorityPlant) serving() []*CoreHandle {
	return p.m().cores[:p.m().cfg.HighPriorityCores]
}

func (p priorityPlant) batch() []*CoreHandle {
	return p.m().cores[p.m().cfg.HighPriorityCores:]
}

func (p priorityPlant) ServingPState() int      { return p.serving()[0].core.PStateIndex() }
func (p priorityPlant) SetServingPState(i int)  { setPState(p.serving(), i) }
func (p priorityPlant) BatchPState() int        { return p.batch()[0].core.PStateIndex() }
func (p priorityPlant) SetBatchPState(i int)    { setPState(p.batch(), i) }
func (p priorityPlant) ServingFloorPState() int { return p.m().cfg.ServingFloorPState }

func (p priorityPlant) BatchGatingLevel() int    { return p.m().batchGatingLevel }
func (p priorityPlant) MaxBatchGatingLevel() int { return p.m().ladderMax() }

// SetBatchGatingLevel gates only the batch cores' private structures;
// the shared L3/DRAM stay on the package-wide ladder.
func (p priorityPlant) SetBatchGatingLevel(l int) {
	m := p.m()
	l = min(max(l, 0), m.ladderMax())
	if l == m.batchGatingLevel {
		return
	}
	m.batchGatingLevel = l
	now := m.Now()
	for _, c := range p.batch() {
		m.gatePrivate(c, now)
	}
}

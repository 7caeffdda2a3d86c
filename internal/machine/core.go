package machine

import (
	"nodecap/internal/cpu"
	"nodecap/internal/mem"
	"nodecap/internal/simtime"
)

// CoreHandle is one core's execution context: the operation API a
// workload — or one shard of a parallel one — drives, over the core's
// own clock, DVFS state and private hierarchy levels. Everything the
// op path reads lives here, so a one-core node pays nothing for being
// the one-core case.
type CoreHandle struct {
	m  *Machine
	id int

	clock simtime.Clock
	core  *cpu.Core
	hier  *mem.Hierarchy
	// parked marks a core that is not part of the run: no shard was
	// given to it, or its shard has finished. A parked core sits in a
	// deep C-state, holds back no event and is posted no stall.
	parked bool
	// nextEvent is the node's next periodic event, or never once this
	// core's clock has passed it (see Machine.refreshNextEvent).
	nextEvent simtime.Duration

	// Power-window accumulators since the last power update.
	accBusy, accStall, accIdle simtime.Duration

	ifetchDown   int
	fetchSeq     uint64
	specAcc      float64
	pendingStall simtime.Duration
	clockDuty    float64 // the node's T-state duty; 0 or 1 = unmodulated

	// Hot-path constants hoisted out of cfg at construction.
	ifetchEvery int
	fastestMHz  int
	specEvery   int
	specLineOff uint64
	opTrace     func(op TraceOp)
	// specInc is the speculative-access accumulator's per-memop
	// increment at frequency specFreq, refreshed when the P-state moves.
	specInc  float64
	specFreq int
	// cyc turns Compute's cycle counts into time without a divide.
	cyc simtime.CycleTable
}

// newCoreHandle builds core id of m, its hierarchy over the slabs of
// oldHier when that is not nil (see Recycle).
func newCoreHandle(m *Machine, id int, oldHier *mem.Hierarchy) *CoreHandle {
	cfg := &m.cfg
	c := &CoreHandle{
		m:           m,
		id:          id,
		core:        cpu.MustCore(id, cfg.PStates, cfg.CStates),
		hier:        m.uncore.Attach(oldHier),
		nextEvent:   never,
		ifetchDown:  cfg.IFetchEvery,
		ifetchEvery: cfg.IFetchEvery,
		fastestMHz:  cfg.PStates.Fastest().FreqMHz,
		specEvery:   cfg.SpecEvery,
		specLineOff: uint64(cfg.Hierarchy.L1D.LineBytes),
		opTrace:     cfg.OpTrace,
	}
	// Perturb the run phase so repeated runs differ like real trials,
	// and give each core its own walk through the code footprint.
	c.clock.Advance(simtime.Duration(cfg.Seed%97) * 731 * simtime.Nanosecond)
	c.fetchSeq = (cfg.Seed + uint64(id)*7919) * 1021
	if id > 0 {
		c.parked = true
		c.core.EnterCState(6)
	}
	return c
}

// ID reports the core number.
func (c *CoreHandle) ID() int { return c.id }

// Now reports this core's local clock.
func (c *CoreHandle) Now() simtime.Duration { return c.clock.Now() }

// Core returns the core's DVFS and counter state.
func (c *CoreHandle) Core() *cpu.Core { return c.core }

// Hierarchy returns the core's view of the memory system: its private
// levels in front of the socket's shared ones.
func (c *CoreHandle) Hierarchy() *mem.Hierarchy { return c.hier }

// Parked reports whether the core is out of the run.
func (c *CoreHandle) Parked() bool { return c.parked }

// Unpark brings the core into the run at time at (or at its own clock,
// if that is later).
func (c *CoreHandle) Unpark(at simtime.Duration) {
	c.parked = false
	c.core.Wake()
	c.clock.AdvanceTo(at)
	c.m.refreshNextEvent()
}

// Park takes the core out of the run: its shard has finished. Events
// the core was holding back fire now.
func (c *CoreHandle) Park() {
	c.drainPendingStall()
	c.parked = true
	c.core.EnterCState(6)
	c.m.fireDueEvents()
}

// Sleep moves this core's clock forward without busy or stall
// accounting — the core waits in a C-state for outside work (an
// open-loop serving shard between request arrivals). Sleep dilutes
// neither the frequency average nor the activity fraction, and the
// power model charges it no dynamic power or active leakage.
func (c *CoreHandle) Sleep(d simtime.Duration) {
	if d > 0 {
		c.clock.Advance(d)
		c.accIdle += d
		c.runDueEvents()
	}
}

// Compute executes instrs committed instructions taking cycles core
// cycles of pure execution (no memory operands beyond L1-resident
// state folded into the cycle count).
func (c *CoreHandle) Compute(cycles int64, instrs uint64) {
	if cycles <= 0 {
		cycles = 1
	}
	if c.opTrace != nil {
		c.opTrace(TraceOp{Kind: TraceCompute, Cycles: cycles, Instrs: instrs})
	}
	c.drainPendingStall()
	c.advanceBusy(c.cyc.Cycles(cycles, c.core.FreqMHz()))
	c.core.InstructionsCommitted += instrs
	c.core.InstructionsExecuted += instrs
	c.fetchForInstrs(instrs)
	c.runDueEvents()
}

// Load performs one committed data read at addr.
func (c *CoreHandle) Load(addr uint64) {
	if c.opTrace != nil {
		c.opTrace(TraceOp{Kind: TraceLoad, Addr: addr})
	}
	c.memop(addr, mem.Load)
}

// Store performs one committed data write at addr.
func (c *CoreHandle) Store(addr uint64) {
	if c.opTrace != nil {
		c.opTrace(TraceOp{Kind: TraceStore, Addr: addr})
	}
	c.memop(addr, mem.Store)
}

func (c *CoreHandle) memop(addr uint64, kind mem.AccessKind) {
	c.drainPendingStall()
	c.fetchForInstrs(1)

	freq := c.core.FreqMHz()
	r := c.hier.Access(c.clock.Now(), freq, addr, kind)
	if r.Level <= mem.LevelL3 {
		// On-chip hits: the out-of-order engine overlaps them with
		// useful work, so they count as busy (high-activity) time.
		c.advanceBusy(r.Latency)
	} else {
		c.advanceStall(r.Latency)
	}

	c.core.InstructionsCommitted++
	c.core.InstructionsExecuted++
	if kind == mem.Store {
		c.core.StoresExecuted++
	} else {
		c.core.LoadsExecuted++
	}

	// Speculative work scales with frequency: a faster front end runs
	// further ahead of a stalled retirement point.
	if freq != c.specFreq {
		c.specFreq = freq
		c.specInc = float64(freq) / float64(c.fastestMHz) / float64(c.specEvery)
	}
	c.specAcc += c.specInc
	if c.specAcc >= 1 {
		c.specAcc--
		c.hier.Access(c.clock.Now(), freq, addr+c.specLineOff, mem.Spec)
		c.core.InstructionsExecuted++
		c.core.LoadsExecuted++
	}
	c.runDueEvents()
}

// fetchForInstrs issues the synthesized instruction fetches implied by
// committing n instructions. Fetches that hit the L1I are free (the
// front end runs ahead of retirement); misses stall.
func (c *CoreHandle) fetchForInstrs(n uint64) {
	c.ifetchDown -= int(n)
	if c.ifetchDown <= 0 {
		c.issueFetches()
	}
}

// issueFetches is the part of fetchForInstrs kept out of line so that
// its countdown inlines into every operation.
func (c *CoreHandle) issueFetches() {
	for c.ifetchDown <= 0 {
		c.ifetchDown += c.ifetchEvery
		addr := c.nextFetchAddr()
		r := c.hier.Access(c.clock.Now(), c.core.FreqMHz(), addr, mem.IFetch)
		if r.Level != mem.LevelL1 {
			c.advanceStall(r.Latency)
		}
	}
}

// farCodePages models the long tail of rarely executed code — shared
// libraries, error paths, OS-visible helpers — that keeps a real
// process's baseline iTLB miss count small but non-zero (the paper's
// baselines run tens of thousands of iTLB misses over billions of
// instructions).
const farCodePages = 512

// nextFetchAddr walks the workload's code footprint: most fetches spin
// in a small hot loop, a steady trickle covers the full footprint
// (helpers, branches taken occasionally), and a rare tail reaches the
// far pages. The code region is shared; each core walks it from its
// own phase.
func (c *CoreHandle) nextFetchAddr() uint64 {
	c.fetchSeq++
	seq := c.fetchSeq
	if seq%499 == 0 {
		h := seq * 0x9E3779B97F4A7C15
		page := (h >> 33) % farCodePages
		return codeRegionBase + uint64(4096*4096) + page*4096
	}
	const hot = 4 // pages in the hot loop, when the footprint has that many
	codePages := c.m.codePages
	var page uint64
	switch {
	case codePages <= hot:
		page = seq % uint64(codePages)
	case seq%5 == 0:
		// Cold fetch: cycle the whole footprint.
		page = (seq / 5) % uint64(codePages)
	default:
		page = seq % hot
	}
	// Vary the line within the page so the L1I sees realistic traffic.
	line := (seq * 13) % 64
	return codeRegionBase + page*4096 + line*64
}

// postStall charges d to the core's next operation: actuations and the
// firmware handler halt a running core briefly, from inside an event.
func (c *CoreHandle) postStall(d simtime.Duration) {
	if !c.parked {
		c.pendingStall += d
	}
}

// drainPendingStall applies stall time posted by events.
func (c *CoreHandle) drainPendingStall() {
	if c.pendingStall > 0 {
		d := c.pendingStall
		c.pendingStall = 0
		c.advanceStall(d)
	}
}

func (c *CoreHandle) advanceBusy(d simtime.Duration) {
	c.clock.Advance(d)
	c.core.AccountBusy(d)
	c.accBusy += d
	if c.clockDuty > 0 && c.clockDuty < 1 {
		// Clock modulation: for every duty-cycle's worth of progress
		// the clock is gated for the complementary fraction.
		c.advanceStall(simtime.Duration(float64(d) * (1 - c.clockDuty) / c.clockDuty))
	}
}

func (c *CoreHandle) advanceStall(d simtime.Duration) {
	c.clock.Advance(d)
	c.core.AccountStall(d)
	c.accStall += d
}

// runDueEvents fires any periodic events the node's running cores have
// all passed.
func (c *CoreHandle) runDueEvents() {
	if c.clock.Now() >= c.nextEvent {
		c.m.fireDueEvents()
	}
}

package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"nodecap/internal/core"
	"nodecap/internal/machine"
	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
)

// The four workloads. Sizes are for a 2-core shared host; cycleSeconds
// is measured there and fixes the op count for a given -seconds.
var workloads = []workload{
	{
		name:         "paper_sweep",
		why:          "the researcher's path: one cap sweep of the paper's tables; the node simulator does all the work, the control plane none",
		cycleSeconds: 4.95, warmup: 1,
		build: buildPaperSweep,
	},
	{
		name:         "fleet_soak",
		why:          "the chaos and CI path: 10 000 in-process nodes ticked, polled and rebalanced, where the engine and the O(N) control-plane costs show",
		cycleSeconds: 1.5, warmup: 2,
		build: buildFleetSoak,
	},
	{
		name:         "budget_push",
		why:          "the write path over real TCP: a budget flip cascades through shard, dcm and the journal to 1 024 BMC servers; the engine does almost nothing",
		cycleSeconds: 0.087, warmup: 30,
		build: buildBudgetPush,
	},
	{
		name:         "poll_sweep",
		why:          "the read path on the same wire rig: five exchanges per node per sweep; store and shard do nothing, so a read gain that costs writes shows",
		cycleSeconds: 0.057, warmup: 40,
		build: buildPollSweep,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- paper_sweep ----------------------------------------------------

var sweepCaps = []float64{150, 140, 130, 120}

const (
	sweepStereo = iota
	sweepSIRE
)

var sweepNames = [2]string{"stereo", "sire"}

type paperSweep struct {
	e    *env
	mix  uint64
	mk   [2]func() machine.Workload
	ref  [2]core.SweepResult // the warm-up's results: every op must repeat them
	last [2]core.SweepResult
	// slackW is how far average power may sit above a cap of 130 W or
	// more.
	slackW float64
}

func buildPaperSweep(e *env) (cycle, error) {
	st := stereo.DefaultConfig()
	st.Sweeps = 1
	sr := sar.DefaultConfig()
	sr.RSMIterations, sr.ImageSize = 2, 48
	if e.toy {
		st = stereo.SmallConfig()
		st.Sweeps = 1
		sr = sar.SmallConfig()
		sr.ImageSize = 16
	}
	p := &paperSweep{e: e, mix: splitmix64(uint64(e.seed)), slackW: 2}
	if e.toy {
		// A toy run ends before the controller has settled on a cap.
		p.slackW = math.Inf(1)
	}
	p.mk[sweepStereo] = func() machine.Workload { return stereo.New(st) }
	p.mk[sweepSIRE] = func() machine.Workload { return sar.New(sr) }
	return p, nil
}

// machineConfig mixes the benchmark seed into every grid point's
// machine seed: the seed moves the meter-noise and SMM phases, not the
// amount of work.
func (p *paperSweep) machineConfig(seed uint64) machine.Config {
	cfg := machine.Romley()
	cfg.Seed = seed ^ p.mix
	return cfg
}

func (p *paperSweep) experiment(k int) core.Experiment {
	return core.Experiment{
		NewWorkload:   p.mk[k],
		MachineConfig: p.machineConfig,
		Caps:          sweepCaps,
		Trials:        1,
		Parallelism:   1,
	}
}

func (p *paperSweep) prepare(int) error { return nil }

func (p *paperSweep) op(int) error {
	for k := range p.mk {
		s := p.e.tr.push(spanSweep + "." + sweepNames[k])
		res, err := p.experiment(k).Run()
		p.e.tr.pop(s)
		if err != nil {
			return err
		}
		p.last[k] = res
	}
	return nil
}

func (p *paperSweep) check(i int) error {
	for k, res := range p.last {
		if p.ref[k].Workload == "" {
			p.ref[k] = res
		} else if !reflect.DeepEqual(res, p.ref[k]) {
			return fmt.Errorf("%s sweep differs from the warm-up's", sweepNames[k])
		}
		prev := res.Baseline
		for _, c := range res.Capped {
			if c.Time < prev.Time {
				return fmt.Errorf("%s: time fell from %v to %v as the cap fell to %s W", sweepNames[k], prev.Time, c.Time, c.Label)
			}
			if c.Counters.Committed != res.Baseline.Counters.Committed {
				return fmt.Errorf("%s: committed instructions differ at %s W", sweepNames[k], c.Label)
			}
			if c.CapWatts >= 130 && c.PowerWatts > c.CapWatts+p.slackW {
				return fmt.Errorf("%s: %.2f W average under a %s W cap", sweepNames[k], c.PowerWatts, c.Label)
			}
			prev = c
		}
	}
	return nil
}

func (p *paperSweep) close() {}

// --- the three control-plane workloads ------------------------------

// budgets draws the per-node budgets the control-plane workloads flip
// between: hi in [148,152] and lo in [133,137] W.
func budgets(seed int64) (hi, lo float64) {
	rng := rand.New(rand.NewSource(seed))
	return 148 + 4*rng.Float64(), 133 + 4*rng.Float64()
}

type controlPlane struct {
	e      *env
	r      *rig
	hi, lo float64
	budget float64 // the fleet budget of the current op

	// Journal records and cap pushes before the first timed op, and
	// how many timed ops have started since.
	seq0, pushes0 uint64
	timedOps      int
}

// mark counts a timed op, noting the counters before the first.
func (c *controlPlane) mark(i int) {
	if i == 0 {
		c.seq0, c.pushes0 = c.r.storeSeq(), c.r.pushes.Value()
	}
	if i >= 0 {
		c.timedOps++
	}
}

func buildControlPlane(e *env, nodes int, wire bool) (*controlPlane, error) {
	if e.toy {
		nodes = 64
	}
	p, err := newPlant(nodes, wire, e.seed, e.tr)
	if err != nil {
		return nil, err
	}
	r, err := newRig(p, e.dir, e.nproc)
	if err != nil {
		return nil, err
	}
	c := &controlPlane{e: e, r: r}
	c.hi, c.lo = budgets(e.seed)
	return c, nil
}

// flip alternates the fleet budget between hi and lo.
func (c *controlPlane) flip(i int) {
	per := c.hi
	if i&1 != 0 {
		per = c.lo
	}
	c.budget = per * float64(len(c.r.names))
}

func (c *controlPlane) tick(n int) {
	s := c.e.tr.push(spanTick)
	c.r.eng.Tick(n)
	c.e.tr.pop(s)
}

func (c *controlPlane) poll() {
	for _, m := range c.r.leaves {
		s := c.e.tr.push(spanPoll)
		m.Poll()
		c.e.tr.pop(s)
	}
}

func (c *controlPlane) rebalance() error {
	s := c.e.tr.push(spanRebalance)
	_, err := c.r.tree.Rebalance(c.budget)
	c.e.tr.pop(s)
	return err
}

func (c *controlPlane) close() { c.r.close() }

// fleet_soak: five chunks of ticks, each followed by a poll of the four
// leaves, with one rebalance after the third.
type fleetSoak struct {
	*controlPlane
	chunkTicks int
}

const soakChunks = 5

func buildFleetSoak(e *env) (cycle, error) {
	cp, err := buildControlPlane(e, 10_000, false)
	if err != nil {
		return nil, err
	}
	f := &fleetSoak{controlPlane: cp, chunkTicks: 1000}
	if e.toy {
		f.chunkTicks = 50
	}
	return f, nil
}

func (f *fleetSoak) prepare(i int) error {
	f.flip(i)
	f.mark(i)
	return nil
}

func (f *fleetSoak) op(int) error {
	var err error
	for k := 0; k < soakChunks; k++ {
		f.tick(f.chunkTicks)
		f.poll()
		if k == 2 {
			err = f.rebalance()
		}
	}
	return err
}

func (f *fleetSoak) check(int) error { return f.r.checkCaps(f.budget) }

// budget_push: timed Rebalance of a flipped budget; the untimed half of
// the cycle ticks and polls so the next cascade sees fresh demand.
type budgetPush struct {
	*controlPlane
}

func buildBudgetPush(e *env) (cycle, error) {
	cp, err := buildControlPlane(e, 1024, true)
	if err != nil {
		return nil, err
	}
	return &budgetPush{controlPlane: cp}, nil
}

func (b *budgetPush) prepare(i int) error {
	b.flip(i)
	b.tick(40) // the tracer is off between ops: these record nothing
	b.poll()
	b.mark(i)
	return nil
}

func (b *budgetPush) op(int) error    { return b.rebalance() }
func (b *budgetPush) check(int) error { return b.r.checkCaps(b.budget) }

// poll_sweep: timed Poll of the four leaves over caps pushed once
// during set-up; the untimed half ticks the engine so every sweep reads
// new values.
type pollSweep struct {
	*controlPlane
	since time.Time
}

func buildPollSweep(e *env) (cycle, error) {
	cp, err := buildControlPlane(e, 1024, true)
	if err != nil {
		return nil, err
	}
	cp.tick(20)
	cp.poll()
	cp.flip(1)
	if _, err := cp.r.tree.Rebalance(cp.budget); err != nil {
		cp.close()
		return nil, err
	}
	return &pollSweep{controlPlane: cp}, nil
}

func (p *pollSweep) prepare(i int) error {
	p.mark(i)
	p.tick(20)
	p.since = time.Now()
	return nil
}

func (p *pollSweep) op(int) error { p.poll(); return nil }

func (p *pollSweep) check(int) error {
	if err := p.r.checkPoll(p.since); err != nil {
		return err
	}
	if p.r.tree.DesiredSum() <= 0 {
		return errors.New("no caps are set")
	}
	return nil
}

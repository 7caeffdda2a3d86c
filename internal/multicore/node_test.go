package multicore

import (
	"errors"
	"reflect"
	"testing"

	"nodecap/internal/bmc"
	"nodecap/internal/faults"
	"nodecap/internal/machine"
	"nodecap/internal/simtime"
)

// opStream is a seeded mix of Compute/Load/Store over L1-, L3- and
// DRAM-sized footprints. It plays the same operations either as a
// machine.Workload or as the one shard of a parallel workload.
type opStream struct {
	left int
	rng  uint64
	base [3]uint64
}

var opStreamSizes = [3]uint64{16 << 10, 4 << 20, 64 << 20}

func newOpStream(ops int) *opStream { return &opStream{left: ops, rng: 0x9E3779B97F4A7C15} }

func (s *opStream) Name() string   { return "op-stream" }
func (s *opStream) CodePages() int { return 24 }

func (s *opStream) layout(alloc func(int) uint64) {
	for i, size := range opStreamSizes {
		s.base[i] = alloc(int(size))
	}
}

func (s *opStream) Run(m *machine.Machine) {
	s.layout(m.Alloc)
	for s.Step(m.CoreHandle) {
	}
}

func (s *opStream) Shards(cores int, alloc func(int) uint64) []Shard {
	s.layout(alloc)
	return []Shard{s}
}

func (s *opStream) Step(c *machine.CoreHandle) bool {
	for n := 0; n < 16 && s.left > 0; n++ {
		s.left--
		s.rng ^= s.rng >> 12
		s.rng ^= s.rng << 25
		s.rng ^= s.rng >> 27
		r := s.rng * 2685821657736338717
		region := (r >> 8) % 3
		addr := s.base[region] + (r>>16)%opStreamSizes[region]&^7
		switch r % 8 {
		case 0, 1, 2:
			c.Compute(int64(1+(r>>40)%60), (r>>48)%48)
		case 3:
			c.Store(addr)
		default:
			c.Load(addr)
		}
	}
	return s.left > 0
}

// nodeState is everything about a machine after a run that the run's
// result does not already carry.
type nodeState struct {
	Now, Busy, Stall simtime.Duration
	PState           int
	L1I, L1D, L2, L3 any
	ITLB, DTLB, DRAM any
}

func stateOf(m *machine.Machine) nodeState {
	h := m.Hierarchy()
	return nodeState{
		Now: m.Now(), Busy: m.Core().BusyTime(), Stall: m.Core().StallTime(), PState: m.Core().PStateIndex(),
		L1I: h.L1I().Stats(), L1D: h.L1D().Stats(), L2: h.L2().Stats(), L3: h.L3().Stats(),
		ITLB: h.ITLB().Stats(), DTLB: h.DTLB().Stats(), DRAM: h.DRAM().Stats(),
	}
}

// TestOneCoreIsOneCore is the equivalence the two simulators never
// had: the same op stream run as a machine.Workload and as a one-shard
// parallel workload on a one-core node yields the same result to the
// last bit — every counter, busy and stall time, average frequency,
// power and energy — uncapped and under a 130 W cap deep enough that
// DVFS, the gating ladder and the firmware overhead all fire.
func TestOneCoreIsOneCore(t *testing.T) {
	for _, capW := range []float64{0, 130} {
		cfg := romley(1)
		cfg.Seed = 5
		serial, sharded := machine.New(cfg), machine.New(cfg)
		_ = serial.SetPolicy(capW)
		_ = sharded.SetPolicy(capW)
		want := serial.RunWorkload(newOpStream(400000))
		got := Run(sharded, newOpStream(400000)).RunResult

		if capW > 0 && (want.BMCStats.StepsDown == 0 || want.BMCStats.GateEscalate == 0) {
			t.Fatalf("cap %.0f did not exercise both DVFS and the gating ladder: %+v", capW, want.BMCStats)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cap %.0f: one shard on one core diverged from the workload on the machine:\n got %+v\nwant %+v", capW, got, want)
		}
		if g, w := stateOf(sharded), stateOf(serial); !reflect.DeepEqual(g, w) {
			t.Errorf("cap %.0f: machine state diverged:\n got %+v\nwant %+v", capW, g, w)
		}
	}
}

// TestNCorePeriodicEventsZeroAlloc pins the meter and BMC events of a
// wide node at zero allocations: four cores spinning under a cap that
// keeps DVFS and the firmware handler busy, over 100 control periods.
func TestNCorePeriodicEventsZeroAlloc(t *testing.T) {
	m := machine.New(romley(4))
	if err := m.SetPolicy(230); err != nil {
		t.Fatal(err)
	}
	m.SetBusy(true)
	cores := m.Cores()
	for _, c := range cores {
		c.Unpark(m.Now())
	}
	base := m.Alloc(len(cores) << 12)
	period := m.Config().BMC.ControlPeriod
	until := m.Now()
	spin := func(periods int) {
		until += simtime.Duration(periods) * period
		for {
			next := cores[0]
			for _, c := range cores[1:] {
				if c.Now() < next.Now() {
					next = c
				}
			}
			if next.Now() >= until {
				return
			}
			next.Compute(2000, 200)
			next.Load(base + uint64(next.ID())<<12)
		}
	}
	// Grow the meter's sample slice past what the measured window
	// appends, then empty it keeping the capacity.
	spin(1000)
	m.Meter().Reset()
	ticks := m.BMC().Stats().Ticks
	allocs := testing.AllocsPerRun(3, func() { spin(100) })
	if fired := m.BMC().Stats().Ticks - ticks; fired < 400 {
		t.Fatalf("only %d control ticks fired in the measured window, want 400", fired)
	}
	if allocs != 0 {
		t.Errorf("100 control periods on four cores allocate %.0f times, want 0", allocs)
	}
}

// TestNewValidatesAnyWidth is machine.New's validation, for the paper's
// one core and for a full socket alike: what cannot work panics with
// the machine's message, what can be defaulted is.
func TestNewValidatesAnyWidth(t *testing.T) {
	for _, cores := range []int{1, 8} {
		for _, tc := range []struct {
			name  string
			edit  func(*machine.Config)
			panic string
		}{
			{"empty ladder", func(c *machine.Config) { c.Ladder = nil }, "machine: empty gating ladder"},
			{"zero meter interval", func(c *machine.Config) { c.MeterInterval = 0 }, "machine: non-positive meter interval"},
			{"negative meter interval", func(c *machine.Config) { c.MeterInterval = -1 }, "machine: non-positive meter interval"},
			{"zero fetch and spec rates", func(c *machine.Config) { c.IFetchEvery, c.SpecEvery = 0, 0 }, ""},
			{"negative fetch and spec rates", func(c *machine.Config) { c.IFetchEvery, c.SpecEvery = -3, -1 }, ""},
		} {
			cfg := romley(cores)
			tc.edit(&cfg)
			var m *machine.Machine
			got := func() (msg any) {
				defer func() { msg = recover() }()
				m = machine.New(cfg)
				return nil
			}()
			if tc.panic != "" {
				if got != tc.panic {
					t.Errorf("%d cores, %s: New panicked with %v, want %q", cores, tc.name, got, tc.panic)
				}
				continue
			}
			if got != nil {
				t.Errorf("%d cores, %s: New panicked with %v", cores, tc.name, got)
				continue
			}
			if c := m.Config(); c.IFetchEvery != 12 || c.SpecEvery != 32 {
				t.Errorf("%d cores, %s: rates defaulted to %d/%d, want 12/32", cores, tc.name, c.IFetchEvery, c.SpecEvery)
			}
			// A run on the defaulted machine terminates and fetches.
			if r := Run(m, &spinWork{iters: 2000}); r.Counters.L1IMisses == 0 {
				t.Errorf("%d cores, %s: a run issued no instruction fetches", cores, tc.name)
			}
		}
	}
}

// TestWideNodeHonoursPlantHooks checks an eight-core node takes the
// same hooks as the one-core machine: a wrapped plant sees the
// controller's sensing and actuation, the control hook runs every
// tick, T-states extend the ladder, and a cap below the floor is
// flagged.
func TestWideNodeHonoursPlantHooks(t *testing.T) {
	var faulty *faults.FaultyPlant
	hooked := 0
	cfg := romley(8)
	cfg.TStates = []float64{0.75, 0.5}
	cfg.WrapPlant = func(inner bmc.Plant) bmc.Plant {
		faulty = faults.NewPlant(inner, faults.PlantProfile{IgnoreActuations: true})
		return faulty
	}
	cfg.ControlHook = func(*machine.Machine) { hooked++ }
	m := machine.New(cfg)
	if want := len(cfg.Ladder) - 1 + len(cfg.TStates); faulty.MaxGatingLevel() != want {
		t.Errorf("MaxGatingLevel = %d, want %d with the T-state levels counted", faulty.MaxGatingLevel(), want)
	}

	if err := m.SetPolicy(260); err != nil {
		t.Fatalf("260 W on eight cores: %v", err)
	}
	if m.BMC().Health().InfeasibleCap {
		t.Error("a 260 W cap on eight cores flagged infeasible")
	}
	res := Run(m, &spinWork{iters: 40000})
	if st := faulty.PlantStats(); st.Reads == 0 || st.IgnoredActuations == 0 {
		t.Errorf("the wrapped plant saw %d reads and swallowed %d actuations, want both", st.Reads, st.IgnoredActuations)
	}
	if res.AvgFreqMHz != 2700 {
		t.Errorf("cores ran at %.0f MHz though the plant swallowed every transition", res.AvgFreqMHz)
	}
	if uint64(hooked) < res.BMCStats.Ticks {
		t.Errorf("control hook ran %d times over %d ticks", hooked, res.BMCStats.Ticks)
	}

	floor := m.CapFloorWatts()
	if one := machine.New(romley(1)).CapFloorWatts(); floor < one+7*10 {
		t.Errorf("eight-core floor %.1f W not eight cores' worth above the one-core %.1f W", floor, one)
	}
	if err := m.SetPolicy(floor - 5); !errors.Is(err, bmc.ErrInfeasibleCap) {
		t.Errorf("SetPolicy below the %.1f W floor returned %v", floor, err)
	}
	if !m.BMC().Health().InfeasibleCap {
		t.Error("a cap below the eight-core floor is not flagged infeasible")
	}
}

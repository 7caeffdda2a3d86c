package core

import (
	"sync/atomic"
	"testing"

	"nodecap/internal/machine"
)

// miniWork is a fast compute-plus-cache workload for sweep tests.
type miniWork struct{ iters int }

func (w *miniWork) Name() string   { return "mini" }
func (w *miniWork) CodePages() int { return 40 }
func (w *miniWork) Run(m *machine.Machine) {
	base := m.Alloc(1 << 20)
	for i := 0; i < w.iters; i++ {
		m.Compute(30, 24)
		m.Load(base + uint64((i*4099)%(1<<20)))
		if i%4 == 0 {
			m.Store(base + uint64((i*8191)%(1<<20)))
		}
	}
}

// forkWork is miniWork as a machine.Forker: the load offsets are an
// input table built once and shared, read-only, by every fork.
type forkWork struct {
	miniWork
	offsets []uint32
	forks   *atomic.Int64 // counts Fork calls across the family
}

func newForkWork(iters int) *forkWork {
	w := &forkWork{miniWork: miniWork{iters: iters}, offsets: make([]uint32, 4096), forks: new(atomic.Int64)}
	for i := range w.offsets {
		w.offsets[i] = uint32(i*4099) % (1 << 20)
	}
	return w
}

func (w *forkWork) Fork() machine.Workload {
	w.forks.Add(1)
	f := *w
	return &f
}

func (w *forkWork) Run(m *machine.Machine) {
	base := m.Alloc(1 << 20)
	for i := 0; i < w.iters; i++ {
		m.Compute(30, 24)
		m.Load(base + uint64(w.offsets[i%len(w.offsets)]))
	}
}

func miniExperiment(caps []float64, trials int) Experiment {
	return Experiment{
		NewWorkload: func() machine.Workload { return &miniWork{iters: 250000} },
		Caps:        caps,
		Trials:      trials,
	}
}

func TestRunRequiresWorkload(t *testing.T) {
	if _, err := (Experiment{}).Run(); err == nil {
		t.Error("empty experiment accepted")
	}
}

func TestDefaultsFill(t *testing.T) {
	e := Experiment{NewWorkload: func() machine.Workload { return &miniWork{} }}
	if err := e.defaults(); err != nil {
		t.Fatal(err)
	}
	if len(e.Caps) != 9 || e.Trials != 5 || e.MachineConfig == nil {
		t.Errorf("defaults wrong: caps=%d trials=%d", len(e.Caps), e.Trials)
	}
}

func TestPaperCaps(t *testing.T) {
	caps := PaperCaps()
	if len(caps) != 9 || caps[0] != 160 || caps[8] != 120 {
		t.Errorf("PaperCaps = %v", caps)
	}
}

func TestSweepShape(t *testing.T) {
	res, err := miniExperiment([]float64{150, 130}, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mini" {
		t.Errorf("workload = %q", res.Workload)
	}
	if res.Baseline.Label != "baseline" || res.Baseline.CapWatts != 0 {
		t.Errorf("baseline = %+v", res.Baseline)
	}
	if len(res.Capped) != 2 || res.Capped[0].Label != "150" || res.Capped[1].Label != "130" {
		t.Errorf("capped rows = %+v", res.Capped)
	}
	if got := len(res.All()); got != 3 {
		t.Errorf("All() = %d rows", got)
	}
}

func TestSweepReproducesHeadlineShape(t *testing.T) {
	res, err := miniExperiment([]float64{150, 130}, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	d150 := res.DiffVsBaseline(res.Capped[0])
	d130 := res.DiffVsBaseline(res.Capped[1])
	// Time grows as the cap tightens.
	if !(d130.Time > d150.Time && d150.Time >= -2) {
		t.Errorf("time diffs not ordered: 150W=%+.1f%% 130W=%+.1f%%", d150.Time, d130.Time)
	}
	// Power decreases with the cap.
	if !(d130.Power < d150.Power && d150.Power < 2) {
		t.Errorf("power diffs not ordered: 150W=%+.1f%% 130W=%+.1f%%", d150.Power, d130.Power)
	}
	// Frequency drops at 130 W (pinned near the floor).
	if res.Capped[1].FreqMHz > 1400 {
		t.Errorf("130 W frequency = %.0f", res.Capped[1].FreqMHz)
	}
	// Committed instructions identical across caps.
	if res.Baseline.Counters.Committed != res.Capped[1].Counters.Committed {
		t.Errorf("committed differ: %.0f vs %.0f",
			res.Baseline.Counters.Committed, res.Capped[1].Counters.Committed)
	}
}

func TestSeriesExtraction(t *testing.T) {
	res, err := miniExperiment([]float64{150}, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series(func(r CapResult) float64 { return r.PowerWatts })
	if len(s) != 2 || s[0] != res.Baseline.PowerWatts || s[1] != res.Capped[0].PowerWatts {
		t.Errorf("series = %v", s)
	}
}

func TestTrialsAveraged(t *testing.T) {
	res, err := miniExperiment([]float64{140}, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	// With differing per-trial seeds the spread should be non-zero but
	// small relative to the mean.
	r := res.Capped[0]
	if r.TimeStddev <= 0 {
		t.Error("trials produced identical times; seeds not varying")
	}
	if r.TimeStddev > 0.25*r.TimeSeconds {
		t.Errorf("trial spread %.4f s too large vs mean %.4f s", r.TimeStddev, r.TimeSeconds)
	}
}

// TestSweepBuildsForkerInputOnce: a sweep of a machine.Forker calls
// NewWorkload once and forks that instance for every run; a sweep of a
// plain Workload still builds one instance per run (plus the one that
// names the sweep).
func TestSweepBuildsForkerInputOnce(t *testing.T) {
	const runs = (1 + 2) * 2 // baseline + 2 caps, 2 trials each
	var built atomic.Int64

	plain := miniExperiment([]float64{150, 130}, 2)
	plain.NewWorkload = func() machine.Workload {
		built.Add(1)
		return &miniWork{iters: 20000}
	}
	if _, err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	if got := built.Load(); got != 1+runs {
		t.Errorf("plain workload: NewWorkload called %d times, want %d", got, 1+runs)
	}

	built.Store(0)
	var proto *forkWork
	forked := miniExperiment([]float64{150, 130}, 2)
	forked.NewWorkload = func() machine.Workload {
		built.Add(1)
		proto = newForkWork(20000)
		return proto
	}
	if _, err := forked.Run(); err != nil {
		t.Fatal(err)
	}
	if got := built.Load(); got != 1 {
		t.Errorf("Forker: NewWorkload called %d times, want 1", got)
	}
	if got := proto.forks.Load(); got != runs {
		t.Errorf("Forker: Fork called %d times, want %d (one per run)", got, runs)
	}
}

package stereo

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"nodecap/internal/machine"
)

func runCfg(t *testing.T, cfg Config, capWatts float64) (*Workload, machine.RunResult) {
	t.Helper()
	w := New(cfg)
	mcfg := machine.Romley()
	mcfg.Seed = cfg.Seed
	m := machine.New(mcfg)
	m.SetPolicy(capWatts)
	res := m.RunWorkload(w)
	return w, res
}

func convergeCfg() Config {
	cfg := SmallConfig()
	cfg.Sweeps = 20
	return cfg
}

func TestWorkingSetSitsBetweenL2AndL3(t *testing.T) {
	w := New(DefaultConfig())
	ws := w.WorkingSetBytes()
	if ws <= 4<<20 {
		t.Errorf("working set %d B must exceed the 4 MiB way-gated L3", ws)
	}
	if ws >= 20<<20 {
		t.Errorf("working set %d B must fit the 20 MiB L3", ws)
	}
}

func TestWeddingCakeGroundTruth(t *testing.T) {
	w := New(SmallConfig())
	c := w.cfg
	// Background at the border, max layer at the centre.
	if w.Truth()[0] != 0 {
		t.Errorf("corner truth = %d, want 0", w.Truth()[0])
	}
	centre := w.Truth()[(c.Height/2)*c.Width+c.Width/2]
	if centre != int32(c.MaxDisparity-1) {
		t.Errorf("centre truth = %d, want %d", centre, c.MaxDisparity-1)
	}
	// Exactly four distinct levels (background + three layers).
	levels := map[int32]bool{}
	for _, d := range w.Truth() {
		levels[d] = true
	}
	if len(levels) != 4 {
		t.Errorf("wedding cake has %d levels, want 4", len(levels))
	}
}

func TestAnnealingConverges(t *testing.T) {
	w, _ := runCfg(t, convergeCfg(), 0)
	if er := w.ErrorRate(); er > 0.15 {
		t.Errorf("error rate after annealing = %.3f, want <= 0.15", er)
	}
}

func TestAnnealingImprovesOverRandomInit(t *testing.T) {
	// A random field mismatches by ~ (D-1)/D beyond one level; the
	// annealer must do much better than that.
	w, _ := runCfg(t, convergeCfg(), 0)
	random := 1.0 - 3.0/float64(w.cfg.MaxDisparity) // |d-t|<=1 covers ~3 of D values
	if er := w.ErrorRate(); er > random/3 {
		t.Errorf("error rate %.3f not well below random-ish %.3f", er, random)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := SmallConfig()
	a, _ := runCfg(t, cfg, 0)
	b, _ := runCfg(t, cfg, 0)
	for i := range a.Disparity() {
		if a.Disparity()[i] != b.Disparity()[i] {
			t.Fatalf("disparity differs at %d with identical seeds", i)
		}
	}
}

func TestResultIndependentOfCap(t *testing.T) {
	cfg := SmallConfig()
	a, ra := runCfg(t, cfg, 0)
	b, rb := runCfg(t, cfg, 125)
	for i := range a.Disparity() {
		if a.Disparity()[i] != b.Disparity()[i] {
			t.Fatalf("capped run changed the computation at %d", i)
		}
	}
	if rb.ExecTime <= ra.ExecTime {
		t.Errorf("capped run (%v) not slower than baseline (%v)", rb.ExecTime, ra.ExecTime)
	}
	if ra.Counters.InstructionsCommitted != rb.Counters.InstructionsCommitted {
		t.Error("committed instructions differ across caps")
	}
}

func TestCensusTransform(t *testing.T) {
	// 3x3 image with a bright centre: centre signature must be 0 (no
	// neighbour brighter); a dim corner must see brighter neighbours.
	img := []float32{
		0.1, 0.2, 0.1,
		0.2, 0.9, 0.2,
		0.1, 0.2, 0.1,
	}
	sig := censusTransform(img, 3, 3)
	if sig[4] != 0 {
		t.Errorf("bright centre census = %b, want 0", sig[4])
	}
	if sig[0] == 0 {
		t.Errorf("dim corner census = 0, want neighbours set")
	}
}

func TestNameAndCodePages(t *testing.T) {
	w := New(SmallConfig())
	if w.Name() != "Stereo Matching" {
		t.Errorf("Name = %q", w.Name())
	}
	if w.CodePages() <= 0 {
		t.Error("no code footprint")
	}
}

func TestL3MissesExplodeUnderDeepCapButNotForStream(t *testing.T) {
	// The paper's central contrast (Section IV-B): stereo's cache-
	// resident random working set suffers badly from way gating.
	cfg := SmallConfig()
	// Enlarge so the working set straddles the gated-L3 boundary the
	// way the full config straddles the real one. 416x416 -> ~4.8 MiB
	// working set vs 4 MiB gated L3.
	cfg.Width, cfg.Height = 416, 416
	cfg.Sweeps = 1
	base, rbase := runCfg(t, cfg, 0)
	_, rdeep := runCfg(t, cfg, 120)
	_ = base
	b := float64(rbase.Counters.L3Misses)
	d := float64(rdeep.Counters.L3Misses)
	if b == 0 {
		t.Fatal("no baseline L3 misses")
	}
	if d < 1.5*b {
		t.Errorf("L3 misses under 120 W cap = %.0f vs baseline %.0f; want large growth (paper: +371%%)", d, b)
	}
}

// TestGoldenDisparityChecksum guards the annealer's computation: for a
// fixed seed the recovered field is deterministic, so its checksum
// must be stable across runs.
func TestGoldenDisparityChecksum(t *testing.T) {
	sum := func() int64 {
		w, _ := runCfg(t, SmallConfig(), 0)
		var s int64
		for i, d := range w.Disparity() {
			s += int64(d) * int64(i%97+1)
		}
		return s
	}
	a, b := sum(), sum()
	if a != b {
		t.Errorf("disparity checksum drifted: %d vs %d", a, b)
	}
	if a == 0 {
		t.Error("all-zero disparity field")
	}
}

// TestForkRunsIdentically pins machine.Forker's contract: a fork of a
// prototype runs bit for bit like a freshly built instance, running a
// fork leaves the prototype untouched (a later fork still matches),
// and forks of one prototype run concurrently without sharing
// anything they write (the race detector checks that half).
func TestForkRunsIdentically(t *testing.T) {
	cfg := SmallConfig()
	run := func(w machine.Workload) (machine.RunResult, []int32) {
		mcfg := machine.Romley()
		mcfg.Seed = 5
		m := machine.New(mcfg)
		m.SetPolicy(130)
		res := m.RunWorkload(w)
		return res, w.(*Workload).Disparity()
	}
	wantRes, wantDisp := run(New(cfg))

	proto := New(cfg)
	check := func(name string, res machine.RunResult, disp []int32) {
		t.Helper()
		if res != wantRes {
			t.Errorf("%s: result %+v, fresh instance %+v", name, res, wantRes)
		}
		if !slices.Equal(disp, wantDisp) {
			t.Errorf("%s: disparity field differs from a fresh instance's", name)
		}
	}
	res, disp := run(proto.Fork())
	check("first fork", res, disp)

	var wg sync.WaitGroup
	var got [2]struct {
		res  machine.RunResult
		disp []int32
	}
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].res, got[i].disp = run(proto.Fork())
		}()
	}
	wg.Wait()
	for i := range got {
		check(fmt.Sprintf("concurrent fork %d", i), got[i].res, got[i].disp)
	}
}

package sar

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"nodecap/internal/machine"
)

func runSmall(t *testing.T, capWatts float64, seed uint64) (*Workload, machine.RunResult) {
	t.Helper()
	cfg := SmallConfig()
	cfg.Seed = seed
	w := New(cfg)
	mcfg := machine.Romley()
	mcfg.Seed = seed
	m := machine.New(mcfg)
	m.SetPolicy(capWatts)
	res := m.RunWorkload(w)
	return w, res
}

func TestDefaultFootprintExceedsL3(t *testing.T) {
	c := DefaultConfig()
	bytes := c.Apertures * c.SamplesPerAperture * 8
	if bytes <= 20<<20 {
		t.Errorf("raw data footprint %d B does not exceed the 20 MiB L3", bytes)
	}
}

func TestImageFormsAtTargets(t *testing.T) {
	w, _ := runSmall(t, 0, 3)
	n := w.cfg.ImageSize
	// The strongest target should produce a bright pixel near its
	// scene position, well above the image median.
	px, py, peak := w.PeakPixel()
	if peak <= 0 {
		t.Fatalf("empty image: peak = %v", peak)
	}
	best := math.Inf(1)
	for _, tg := range w.Targets() {
		tx, ty := int(tg[0]*float64(n)), int(tg[1]*float64(n))
		d := math.Hypot(float64(px-tx), float64(py-ty))
		if d < best {
			best = d
		}
	}
	if best > 3.5 {
		t.Errorf("peak pixel (%d,%d) is %.1f pixels from the nearest target", px, py, best)
	}
}

func TestPeakDominatesBackground(t *testing.T) {
	w, _ := runSmall(t, 0, 4)
	_, _, peak := w.PeakPixel()
	var sum float64
	var cnt int
	for _, v := range w.Image() {
		if !math.IsInf(v, 1) {
			sum += v
			cnt++
		}
	}
	mean := sum / float64(cnt)
	if peak < 3*mean {
		t.Errorf("peak %.2f not well above mean %.2f: imaging is not working", peak, mean)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, _ := runSmall(t, 0, 7)
	b, _ := runSmall(t, 0, 7)
	for i := range a.Image() {
		if a.Image()[i] != b.Image()[i] {
			t.Fatalf("image differs at %d with identical seeds", i)
		}
	}
}

func TestResultIndependentOfCap(t *testing.T) {
	// Power capping slows the run but must not change the computation.
	a, ra := runSmall(t, 0, 9)
	b, rb := runSmall(t, 125, 9)
	for i := range a.Image() {
		if a.Image()[i] != b.Image()[i] {
			t.Fatalf("capped image differs at %d", i)
		}
	}
	if rb.ExecTime <= ra.ExecTime {
		t.Errorf("125 W run (%v) not slower than baseline (%v)", rb.ExecTime, ra.ExecTime)
	}
	if ra.Counters.InstructionsCommitted != rb.Counters.InstructionsCommitted {
		t.Errorf("committed instructions differ across caps: %d vs %d",
			ra.Counters.InstructionsCommitted, rb.Counters.InstructionsCommitted)
	}
}

func TestStreamingPhaseMissesCompulsory(t *testing.T) {
	// The denoise stream over a > L3 array must produce roughly one L3
	// miss per line (64 B = 8 elements), unchanged by way gating.
	cfg := SmallConfig()
	cfg.Apertures = 64
	cfg.SamplesPerAperture = 4096 // 2 MiB: small for test speed
	cfg.RSMIterations = 1
	w := New(cfg)
	m := machine.New(machine.Romley())
	res := m.RunWorkload(w)
	elems := uint64(cfg.Apertures * cfg.SamplesPerAperture)
	wantLines := elems / 8
	got := res.Counters.L3Misses
	if got < wantLines/2 {
		t.Errorf("L3 misses = %d, want at least ~%d (compulsory stream)", got, wantLines/2)
	}
}

func TestNameAndCodePages(t *testing.T) {
	w := New(SmallConfig())
	if w.Name() != "SIRE/RSM" {
		t.Errorf("Name = %q", w.Name())
	}
	if w.CodePages() <= 0 {
		t.Errorf("CodePages = %d", w.CodePages())
	}
}

// TestGoldenImageChecksum guards the workload's computation against
// accidental behavioural drift: the formed image for a fixed seed is a
// deterministic function of the algorithm.
func TestGoldenImageChecksum(t *testing.T) {
	w, _ := runSmall(t, 0, 42)
	var sum float64
	for _, v := range w.Image() {
		if !math.IsInf(v, 1) {
			sum += v
		}
	}
	// Re-run must match bit-for-bit.
	w2, _ := runSmall(t, 0, 42)
	var sum2 float64
	for _, v := range w2.Image() {
		if !math.IsInf(v, 1) {
			sum2 += v
		}
	}
	if sum != sum2 {
		t.Errorf("image checksum drifted: %v vs %v", sum, sum2)
	}
	if sum == 0 {
		t.Error("empty image")
	}
}

// TestForkRunsIdentically pins machine.Forker's contract: a fork of a
// prototype runs bit for bit like a freshly built instance, so does a
// later fork and so does the prototype itself, and forks of one
// prototype run concurrently — the first to get there filters the
// shared returns, the rest wait and then only read them (the race
// detector checks that half).
func TestForkRunsIdentically(t *testing.T) {
	cfg := SmallConfig()
	run := func(w machine.Workload) (machine.RunResult, []float64) {
		mcfg := machine.Romley()
		mcfg.Seed = 5
		m := machine.New(mcfg)
		m.SetPolicy(130)
		res := m.RunWorkload(w)
		return res, w.(*Workload).Image()
	}
	wantRes, wantImage := run(New(cfg))

	proto := New(cfg)
	check := func(name string, res machine.RunResult, image []float64) {
		t.Helper()
		if res != wantRes {
			t.Errorf("%s: result %+v, fresh instance %+v", name, res, wantRes)
		}
		if !slices.Equal(image, wantImage) {
			t.Errorf("%s: image differs from a fresh instance's", name)
		}
	}

	// Concurrent forks first, while the returns are still raw.
	var wg sync.WaitGroup
	var got [2]struct {
		res   machine.RunResult
		image []float64
	}
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].res, got[i].image = run(proto.Fork())
		}()
	}
	wg.Wait()
	for i := range got {
		check(fmt.Sprintf("concurrent fork %d", i), got[i].res, got[i].image)
	}

	res, image := run(proto.Fork())
	check("later fork", res, image)
	res, image = run(proto)
	check("the prototype itself", res, image)
}

// filteredDigest hashes the bit patterns of w's returns.
func filteredDigest(w *Workload) string {
	h := fnv.New64a()
	var b [8]byte
	var sum float64
	for _, v := range w.data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
		sum += v
	}
	return fmt.Sprintf("fnv=%#x sum=%b", h.Sum64(), sum)
}

// TestFilteredReturnsMatchRecorded pins the arithmetic removeNoise no
// longer repeats: the filtered array, for one noise pass and for two,
// against digests recorded when every run still filtered its own copy
// in step with the operation stream — and still the same after three
// more runs over the same returns, which therefore filtered nothing.
func TestFilteredReturnsMatchRecorded(t *testing.T) {
	for passes, want := range map[int]string{
		1: "fnv=0xe1ead1125513f16 sum=6372610624581594p-46",
		2: "fnv=0xe28cf4ac97eea797 sum=6277265053169335p-46",
	} {
		cfg := SmallConfig()
		cfg.NoisePasses = passes
		proto := New(cfg)
		for i, w := range []machine.Workload{proto.Fork(), proto.Fork(), proto, proto.Fork()} {
			machine.New(machine.Romley()).RunWorkload(w)
			if got := filteredDigest(proto); got != want {
				t.Fatalf("%d passes, after run %d: filtered returns %s, recorded %s", passes, i, got, want)
			}
		}
	}
}

package sensors

import (
	"math"
	"testing"
	"testing/quick"

	"nodecap/internal/simtime"
)

func TestEmptyMeter(t *testing.T) {
	m := NewMeter(0)
	if m.AverageWatts() != 0 || m.EnergyJoules() != 0 || m.Len() != 0 {
		t.Error("empty meter not zero")
	}
	if _, ok := m.Last(); ok {
		t.Error("Last on empty meter ok")
	}
}

func TestConstantPower(t *testing.T) {
	m := NewMeter(0)
	for i := 0; i <= 10; i++ {
		m.Record(simtime.Duration(i)*simtime.Second, 150)
	}
	if got := m.AverageWatts(); got != 150 {
		t.Errorf("AverageWatts = %v", got)
	}
	// 150 W for 10 s = 1500 J.
	if got := m.EnergyJoules(); math.Abs(got-1500) > 1e-9 {
		t.Errorf("EnergyJoules = %v", got)
	}
}

func TestTrapezoidalIntegration(t *testing.T) {
	m := NewMeter(0)
	m.Record(0, 100)
	m.Record(2*simtime.Second, 200)
	// Trapezoid: (100+200)/2 * 2 s = 300 J.
	if got := m.EnergyJoules(); math.Abs(got-300) > 1e-9 {
		t.Errorf("EnergyJoules = %v", got)
	}
	if got := m.AverageWatts(); math.Abs(got-150) > 1e-9 {
		t.Errorf("AverageWatts = %v", got)
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	// 1 s at ~100 W then 9 s at ~200 W: the time-weighted average must
	// be near 190, not the sample mean.
	m := NewMeter(0)
	m.Record(0, 100)
	m.Record(simtime.Second, 100)
	m.Record(10*simtime.Second, 200)
	got := m.AverageWatts()
	want := (100*1 + 150*9) / 10.0 // trapezoid on second span
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AverageWatts = %v, want %v", got, want)
	}
}

func TestWindowAverage(t *testing.T) {
	m := NewMeter(0)
	for i := 0; i <= 9; i++ {
		w := 100.0
		if i >= 5 {
			w = 200
		}
		m.Record(simtime.Duration(i)*simtime.Second, w)
	}
	// Last 4 s: samples at 5..9 s, all 200 W.
	if got := m.WindowAverageWatts(4 * simtime.Second); got != 200 {
		t.Errorf("WindowAverageWatts(4s) = %v", got)
	}
	// Whole span.
	full := m.WindowAverageWatts(100 * simtime.Second)
	if full <= 100 || full >= 200 {
		t.Errorf("WindowAverageWatts(100s) = %v", full)
	}
}

func TestWindowAverageSingleSample(t *testing.T) {
	m := NewMeter(0)
	m.Record(simtime.Second, 123)
	if got := m.WindowAverageWatts(simtime.Second); got != 123 {
		t.Errorf("WindowAverageWatts = %v", got)
	}
}

func TestLastAndReset(t *testing.T) {
	m := NewMeter(0)
	m.Record(simtime.Second, 111)
	m.Record(2*simtime.Second, 222)
	s, ok := m.Last()
	if !ok || s.Watts != 222 || s.At != 2*simtime.Second {
		t.Errorf("Last = %+v, %v", s, ok)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Error("Reset kept samples")
	}
}

func TestNoiseBoundedAndDeterministic(t *testing.T) {
	a := NewMeter(1.5)
	b := NewMeter(1.5)
	for i := 0; i < 200; i++ {
		a.Record(simtime.Duration(i)*simtime.Second, 150)
		b.Record(simtime.Duration(i)*simtime.Second, 150)
	}
	for i, s := range a.Samples() {
		if math.Abs(s.Watts-150) > 1.5 {
			t.Fatalf("sample %d = %v exceeds noise bound", i, s.Watts)
		}
		if s.Watts != b.Samples()[i].Watts {
			t.Fatal("noise not deterministic across meters")
		}
	}
	// Noise should actually perturb something.
	var any bool
	for _, s := range a.Samples() {
		if s.Watts != 150 {
			any = true
			break
		}
	}
	if !any {
		t.Error("noise amplitude 1.5 produced no perturbation")
	}
}

func TestNoiseAveragesOut(t *testing.T) {
	m := NewMeter(2)
	for i := 0; i <= 5000; i++ {
		m.Record(simtime.Duration(i)*simtime.Second, 150)
	}
	if got := m.AverageWatts(); math.Abs(got-150) > 0.2 {
		t.Errorf("noisy average = %v, want ~150", got)
	}
}

func TestRecordClampsNegativeNoise(t *testing.T) {
	// Huge noise amplitude around a near-zero reading: without the 0 W
	// clamp some samples go negative and poison trapezoidal energy.
	m := NewMeter(50)
	for i := 0; i < 500; i++ {
		m.Record(simtime.Duration(i)*simtime.Second, 1)
	}
	for i, s := range m.Samples() {
		if s.Watts < 0 {
			t.Fatalf("sample %d = %v W, want >= 0", i, s.Watts)
		}
	}
	if e := m.EnergyJoules(); e < 0 {
		t.Errorf("EnergyJoules = %v, want >= 0", e)
	}
}

func TestWindowAverageZeroSpan(t *testing.T) {
	// All window samples at one timestamp: no time base to weight by.
	// This used to return NaN (0/0).
	m := NewMeter(0)
	m.Record(simtime.Second, 140)
	m.Record(simtime.Second, 160)
	m.Record(simtime.Second, 180)
	got := m.WindowAverageWatts(10 * simtime.Second)
	if math.IsNaN(got) {
		t.Fatal("WindowAverageWatts = NaN on zero-span window")
	}
	if got != 180 {
		t.Errorf("WindowAverageWatts = %v, want 180 (latest reading)", got)
	}
}

// TestAverageWithinSampleRange: the time-weighted average of any
// noiseless trace lies within [min, max] of its samples.
func TestAverageWithinSampleRange(t *testing.T) {
	f := func(watts []float64) bool {
		if len(watts) == 0 {
			return true
		}
		m := NewMeter(0)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, w := range watts {
			w = math.Abs(math.Mod(w, 1000)) // keep finite and positive
			if math.IsNaN(w) {
				w = 0
			}
			lo = math.Min(lo, w)
			hi = math.Max(hi, w)
			m.Record(simtime.Duration(i)*simtime.Second, w)
		}
		avg := m.AverageWatts()
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTrimKeepsTheWindow: Trim drops exactly the samples the window
// average never reads — the one sitting on the cutoff stays — so the
// average is the same float before and after, at every window length.
func TestTrimKeepsTheWindow(t *testing.T) {
	NewMeter(0).Trim(simtime.Second) // nothing to trim: no panic
	for window := simtime.Duration(0); window <= 12*simtime.Second; window += simtime.Second / 2 {
		m := NewMeter(0.8)
		for i := 0; i < 10; i++ {
			m.Record(simtime.Duration(i)*simtime.Second, 100+float64(i*i))
		}
		want := m.WindowAverageWatts(window)
		m.Trim(window)
		if got := m.WindowAverageWatts(window); got != want {
			t.Errorf("window %v: average %v after Trim, %v before", window, got, want)
		}
		if wantLen := min(10, int(window/simtime.Second)+1); m.Len() != wantLen {
			t.Errorf("window %v: %d samples left, want %d", window, m.Len(), wantLen)
		}
	}
}

// TestTakeBuffer: the taker starts empty on the giver's storage, and the
// giver forgets it, so the two never share samples.
func TestTakeBuffer(t *testing.T) {
	old, m := NewMeter(0), NewMeter(0)
	for i := 0; i < 100; i++ {
		old.Record(simtime.Duration(i), 150)
	}
	m.TakeBuffer(old)
	if m.Len() != 0 || old.Len() != 0 {
		t.Fatalf("after TakeBuffer: taker holds %d samples, giver %d, want 0 and 0", m.Len(), old.Len())
	}
	if allocs := testing.AllocsPerRun(1, func() { m.Record(0, 150) }); allocs != 0 {
		t.Errorf("recording into a taken buffer allocates %v times", allocs)
	}
	old.Record(5, 99)
	if s, _ := m.Last(); s.Watts != 150 {
		t.Errorf("the giver's next sample landed in the taker: %+v", s)
	}
}

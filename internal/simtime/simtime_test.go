package simtime

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestUnitRatios(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Errorf("Nanosecond = %d", Nanosecond)
	}
	if Second != 1_000_000_000_000*Picosecond {
		t.Errorf("Second = %d", Second)
	}
	if Hour != 3600*Second {
		t.Errorf("Hour = %d", Hour)
	}
}

func TestFromNanos(t *testing.T) {
	cases := []struct {
		ns   float64
		want Duration
	}{
		{0, 0},
		{1, Nanosecond},
		{1.5, 1500},
		{0.0004, 0}, // rounds down
		{0.0006, 1}, // rounds up
		{60, 60 * Nanosecond},
	}
	for _, c := range cases {
		if got := FromNanos(c.ns); got != c.want {
			t.Errorf("FromNanos(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.25, 1, 91, 377, 10139} {
		d := FromSeconds(s)
		if got := d.Seconds(); got != s {
			t.Errorf("FromSeconds(%v).Seconds() = %v", s, got)
		}
	}
}

func TestFromStd(t *testing.T) {
	if got := FromStd(3 * time.Millisecond); got != 3*Millisecond {
		t.Errorf("FromStd(3ms) = %v", got)
	}
	if got := (2 * Second).Std(); got != 2*time.Second {
		t.Errorf("(2s).Std() = %v", got)
	}
}

func TestHMS(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{91 * Second, "0:01:31"},                    // Stereo baseline in Table I
		{6*Minute + 17*Second, "0:06:17"},           // SIRE baseline in Table I
		{2*Hour + 48*Minute + 59*Second, "2:48:59"}, // SIRE at 120 W in Table II
		{52*Minute + 48*Second, "0:52:48"},          // Stereo at 120 W
		{Second/2 + 1, "0:00:01"},                   // rounds to nearest second
		{0, "0:00:00"},
	}
	for _, c := range cases {
		if got := c.d.HMS(); got != c.want {
			t.Errorf("HMS(%d) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	if got := (500 * Picosecond).String(); got != "500ps" {
		t.Errorf("String = %q", got)
	}
	if got := (1500 * Picosecond).String(); got != "1.50ns" {
		t.Errorf("String = %q", got)
	}
	if got := (90 * Second).String(); got != "0:01:30" {
		t.Errorf("String = %q", got)
	}
}

func TestCycleTime(t *testing.T) {
	// One cycle at 2700 MHz is 370.37 ps, rounded to 370 ps.
	if got := CycleTime(2700); got != 370 {
		t.Errorf("CycleTime(2700) = %d, want 370", got)
	}
	if got := CycleTime(1200); got != 833 {
		t.Errorf("CycleTime(1200) = %d, want 833", got)
	}
	if got := CycleTime(0); got != 0 {
		t.Errorf("CycleTime(0) = %d, want 0", got)
	}
}

func TestCyclesNoCumulativeError(t *testing.T) {
	// A billion cycles at 2.7 GHz should be ~370.37 ms, not the
	// 370 ms that per-cycle truncation would give.
	d := Cycles(1_000_000_000, 2700)
	wantNs := 1e9 / 2700 * 1000 // ns
	if got := d.Nanos(); got < wantNs*0.9999 || got > wantNs*1.0001 {
		t.Errorf("Cycles(1e9, 2700) = %v ns, want ~%v ns", got, wantNs)
	}
}

func TestCyclesAt(t *testing.T) {
	if got := Second.CyclesAt(2700); got != 2_700_000_000 {
		t.Errorf("Second.CyclesAt(2700) = %d", got)
	}
	if got := Second.CyclesAt(0); got != 0 {
		t.Errorf("CyclesAt(0) = %d", got)
	}
}

func TestCyclesRoundTripProperty(t *testing.T) {
	// For any positive cycle count and supported frequency, converting
	// cycles -> duration -> cycles loses at most one cycle to rounding.
	f := func(n uint32, fsel uint8) bool {
		freqs := []int{1200, 1500, 2000, 2400, 2700}
		freq := freqs[int(fsel)%len(freqs)]
		cycles := int64(n%1_000_000) + 1
		d := Cycles(cycles, freq)
		back := d.CyclesAt(freq)
		diff := back - cycles
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d", c.Now())
	}
	c.Advance(5 * Millisecond)
	c.Advance(0)
	if c.Now() != 5*Millisecond {
		t.Errorf("Now = %v", c.Now())
	}
	c.AdvanceTo(3 * Millisecond) // in the past: no-op
	if c.Now() != 5*Millisecond {
		t.Errorf("AdvanceTo past moved clock to %v", c.Now())
	}
	c.AdvanceTo(7 * Millisecond)
	if c.Now() != 7*Millisecond {
		t.Errorf("AdvanceTo future: Now = %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Reset: Now = %v", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	var got []int
	q.Schedule(30, func(Duration) { got = append(got, 3) })
	q.Schedule(10, func(Duration) { got = append(got, 1) })
	q.Schedule(20, func(Duration) { got = append(got, 2) })
	q.RunUntil(25)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("RunUntil(25) fired %v", got)
	}
	q.RunUntil(100)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("RunUntil(100) fired %v", got)
	}
}

func TestEventQueueFIFOTieBreak(t *testing.T) {
	q := NewEventQueue()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(42, func(Duration) { got = append(got, i) })
	}
	q.RunUntil(42)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v", got)
		}
	}
}

func TestEventQueueRescheduleDuringRun(t *testing.T) {
	q := NewEventQueue()
	var fired []Duration
	var tick func(now Duration)
	tick = func(now Duration) {
		fired = append(fired, now)
		if now < 50 {
			q.Schedule(now+10, tick)
		}
	}
	q.Schedule(10, tick)
	q.RunUntil(35)
	if len(fired) != 3 { // 10, 20, 30
		t.Fatalf("fired at %v", fired)
	}
	q.RunUntil(1000)
	if len(fired) != 5 { // + 40, 50
		t.Fatalf("fired at %v", fired)
	}
}

func TestEventQueuePeekAndClear(t *testing.T) {
	q := NewEventQueue()
	if _, ok := q.PeekTime(); ok {
		t.Error("PeekTime on empty queue reported ok")
	}
	q.Schedule(7, func(Duration) {})
	if at, ok := q.PeekTime(); !ok || at != 7 {
		t.Errorf("PeekTime = %v, %v", at, ok)
	}
	q.Clear()
	if q.Len() != 0 {
		t.Errorf("Len after Clear = %d", q.Len())
	}
}

func TestEventQueueHeapProperty(t *testing.T) {
	// Random schedule times must always pop in non-decreasing order.
	f := func(times []uint16) bool {
		q := NewEventQueue()
		for _, at := range times {
			q.Schedule(Duration(at), func(Duration) {})
		}
		last := Duration(-1)
		for q.Len() > 0 {
			e := q.Pop()
			if e.At < last {
				return false
			}
			last = e.At
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEventQueueRearm: two periodic events that re-arm themselves from
// their own callbacks interleave exactly as two chains of fresh
// Schedule calls do — including at instants where both fall due, where
// the one armed first fires first — and re-arming allocates nothing.
func TestEventQueueRearm(t *testing.T) {
	type firing struct {
		who string
		at  Duration
	}
	run := func(rearm bool) []firing {
		q := NewEventQueue()
		var got []firing
		var a, b *Event
		var tickA, tickB func(Duration)
		again := func(e **Event, at Duration, fn func(Duration)) {
			if rearm {
				q.Rearm(*e, at)
			} else {
				*e = q.Schedule(at, fn)
			}
		}
		tickA = func(now Duration) { got = append(got, firing{"a", now}); again(&a, now+20, tickA) }
		tickB = func(now Duration) { got = append(got, firing{"b", now}); again(&b, now+50, tickB) }
		a = q.Schedule(20, tickA)
		b = q.Schedule(50, tickB)
		q.RunUntil(400) // they coincide at 100, 200, 300, 400
		return got
	}
	fresh, rearmed := run(false), run(true)
	if len(fresh) != 28 || !slices.Equal(fresh, rearmed) {
		t.Fatalf("re-armed events fired\n%v\nfresh events fired\n%v", rearmed, fresh)
	}

	q := NewEventQueue()
	var e *Event
	e = q.Schedule(1, func(now Duration) { q.Rearm(e, now+1) })
	q.RunUntil(10)
	if allocs := testing.AllocsPerRun(100, func() { q.RunUntil(e.At + 10) }); allocs != 0 {
		t.Errorf("a self-re-arming event allocates %.0f times per 10 firings, want 0", allocs)
	}
}

// TestCycleTableMatchesCycles: the table returns Cycles' own value for
// every count, tabulated or not, across frequency changes back and
// forth, from the zero value.
func TestCycleTableMatchesCycles(t *testing.T) {
	var tab CycleTable
	for _, f := range []int{0, 2700, 1200, 2700, 2700, 1300, -5, 1200} {
		for n := int64(-2); n < 200; n++ {
			if got, want := tab.Cycles(n, f), Cycles(n, f); got != want {
				t.Fatalf("CycleTable.Cycles(%d, %d) = %d, Cycles = %d", n, f, got, want)
			}
		}
		// And again in the order the access path asks: one count, many
		// frequencies.
		for _, g := range []int{f, 2200, f, 2100} {
			if got, want := tab.Cycles(53, g), Cycles(53, g); got != want {
				t.Fatalf("CycleTable.Cycles(53, %d) = %d, Cycles = %d", g, got, want)
			}
		}
	}
}

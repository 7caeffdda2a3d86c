package dcm

import (
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"nodecap/internal/ipmi"
	"nodecap/internal/telemetry"
)

// testClock is a manually-advanced wall clock, so breaker-hold tests
// never sleep and never race real time.
type testClock struct{ ns atomic.Int64 }

func (c *testClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// slowBMC advances the test clock inside GetPowerReading, so the
// manager measures exactly lag of exchange latency — deterministic
// latency-trip tests without wall-clock sleeps.
type slowBMC struct {
	flakyBMC
	clk *testClock
	lag atomic.Int64 // simulated exchange latency, ns
}

func (s *slowBMC) GetPowerReading() (ipmi.PowerReading, error) {
	s.clk.advance(time.Duration(s.lag.Load()))
	return ipmi.PowerReading{CurrentWatts: 150, AverageWatts: 150}, nil
}

func traceHas(evs []telemetry.Event, kind string) bool {
	for _, ev := range evs {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

// TestBreakerOpensAndRecovers walks the full state machine: three
// consecutive failures trip the breaker open, the open hold stops all
// dialing, and once the hold expires a single half-open probe against
// a recovered node closes it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	clk := &testClock{}
	var dials atomic.Int32
	flaky := &flakyBMC{}
	m := NewManager(func(addr string) (BMC, error) {
		dials.Add(1)
		return flaky, nil
	})
	defer m.Close()
	m.Clock = clk.now
	m.RetryBaseDelay = time.Nanosecond
	m.RetryMaxDelay = 2 * time.Nanosecond
	m.Breaker = BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Second}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTrace(256)
	m.SetTelemetry(reg, tr)

	if err := m.AddNode("n", "x"); err != nil {
		t.Fatal(err)
	}
	flaky.setFail(true)
	for i := 0; i < 3; i++ {
		clk.advance(time.Microsecond)
		m.Poll()
	}
	st := m.Nodes()[0]
	if st.Breaker != BreakerOpen || st.BreakerOpens != 1 {
		t.Fatalf("after 3 failures breaker = %q (opens %d), want open/1", st.Breaker, st.BreakerOpens)
	}
	if !traceHas(tr.Tail(64, "n"), telemetry.EvBreakerOpen) {
		t.Error("no breaker-open trace event")
	}

	// An open breaker means the node is not dialed at all — not even a
	// redial attempt — until the hold expires.
	before := dials.Load()
	for i := 0; i < 5; i++ {
		clk.advance(time.Microsecond)
		m.Poll()
	}
	if got := dials.Load(); got != before {
		t.Errorf("open breaker still dialed %d times", got-before)
	}

	// Hold expiry grants one half-open probe; the node recovered, so
	// the probe closes the breaker and normal polling resumes.
	flaky.setFail(false)
	clk.advance(2 * time.Second)
	m.Poll()
	st = m.Nodes()[0]
	if st.Breaker != BreakerClosed || !st.Reachable {
		t.Fatalf("after healthy probe breaker = %q reachable=%v, want closed/true", st.Breaker, st.Reachable)
	}
	evs := tr.Tail(64, "n")
	if !traceHas(evs, telemetry.EvBreakerHalfOpen) || !traceHas(evs, telemetry.EvBreakerClose) {
		t.Error("half-open/close transitions not traced")
	}
	if reg.Snapshot().Counters["dcm_breaker_closes_total"] == 0 {
		t.Error("dcm_breaker_closes_total not incremented")
	}
}

// TestBreakerLatencyTrip: exchanges that *succeed* but run over
// SlowThreshold for SlowConsecutive rounds open the breaker —
// slow-but-alive is the gray failure the layer exists for.
func TestBreakerLatencyTrip(t *testing.T) {
	clk := &testClock{}
	stub := &slowBMC{clk: clk}
	m := NewManager(func(addr string) (BMC, error) { return stub, nil })
	defer m.Close()
	m.Clock = clk.now
	m.Breaker = BreakerConfig{
		SlowThreshold:   time.Millisecond,
		SlowConsecutive: 2,
		OpenTimeout:     time.Second,
	}
	tr := telemetry.NewTrace(256)
	m.SetTelemetry(telemetry.NewRegistry(), tr)
	if err := m.AddNode("n", "x"); err != nil {
		t.Fatal(err)
	}

	stub.lag.Store(int64(5 * time.Millisecond))
	clk.advance(time.Microsecond)
	m.Poll()
	st := m.Nodes()[0]
	if st.Breaker != BreakerClosed {
		t.Fatalf("breaker tripped after a single slow exchange: %q", st.Breaker)
	}
	if st.LatencyEWMA < time.Millisecond {
		t.Errorf("LatencyEWMA = %v after a 5ms exchange", st.LatencyEWMA)
	}
	clk.advance(time.Microsecond)
	m.Poll()
	st = m.Nodes()[0]
	if st.Breaker != BreakerOpen {
		t.Fatalf("breaker = %q after %d slow exchanges, want open", st.Breaker, 2)
	}
	if !st.Reachable {
		t.Error("latency trip marked a live node unreachable")
	}
	for _, ev := range tr.Tail(64, "n") {
		if ev.Kind == telemetry.EvBreakerOpen && ev.Err != "slow" {
			t.Errorf("latency trip reason = %q, want slow", ev.Err)
		}
	}
}

// TestBreakerFlapQuarantine: a breaker that re-opens FlapMax times
// inside the flap window parks the node in quarantine under the longer
// hold — the fleet stops paying the probe tax for a link that cannot
// hold a verdict.
func TestBreakerFlapQuarantine(t *testing.T) {
	clk := &testClock{}
	flaky := &flakyBMC{}
	m := NewManager(func(addr string) (BMC, error) { return flaky, nil })
	defer m.Close()
	m.Clock = clk.now
	m.RetryBaseDelay = time.Nanosecond
	m.RetryMaxDelay = 2 * time.Nanosecond
	m.Breaker = BreakerConfig{
		FailureThreshold: 1,
		OpenTimeout:      time.Microsecond,
		FlapWindow:       time.Hour,
		FlapMax:          2,
		QuarantineHold:   time.Hour,
	}
	tr := telemetry.NewTrace(256)
	m.SetTelemetry(telemetry.NewRegistry(), tr)
	if err := m.AddNode("n", "x"); err != nil {
		t.Fatal(err)
	}
	flaky.setFail(true)

	clk.advance(time.Millisecond)
	m.Poll() // first failure trips open
	clk.advance(time.Millisecond)
	m.Poll() // half-open probe fails: second open inside the window → quarantine
	st := m.Nodes()[0]
	if st.Breaker != BreakerQuarantined {
		t.Fatalf("breaker = %q after flapping, want quarantined", st.Breaker)
	}
	if !traceHas(tr.Tail(64, "n"), telemetry.EvQuarantine) {
		t.Error("no quarantine trace event")
	}

	// Quarantine outlasts the ordinary open hold by design.
	clk.advance(time.Minute)
	m.Poll()
	if st := m.Nodes()[0]; st.Breaker != BreakerQuarantined {
		t.Errorf("quarantine released after %v, hold is %v", time.Minute, time.Hour)
	}
}

// TestBreakerDisabled: FailureThreshold < 0 switches the layer off —
// every node stays pollable no matter how it fails.
func TestBreakerDisabled(t *testing.T) {
	clk := &testClock{}
	var dials atomic.Int32
	flaky := &flakyBMC{}
	m := NewManager(func(addr string) (BMC, error) {
		dials.Add(1)
		return flaky, nil
	})
	defer m.Close()
	m.Clock = clk.now
	m.RetryBaseDelay = time.Nanosecond
	m.RetryMaxDelay = 2 * time.Nanosecond
	m.Breaker = BreakerConfig{FailureThreshold: -1}
	if err := m.AddNode("n", "x"); err != nil {
		t.Fatal(err)
	}
	flaky.setFail(true)
	for i := 0; i < 10; i++ {
		clk.advance(time.Microsecond)
		m.Poll()
	}
	st := m.Nodes()[0]
	if st.Breaker != BreakerClosed || st.BreakerOpens != 0 {
		t.Errorf("disabled breaker reached %q (opens %d)", st.Breaker, st.BreakerOpens)
	}
	if dials.Load() < 10 {
		t.Errorf("disabled breaker stopped dialing: %d dials", dials.Load())
	}
}

// TestBusySkipStarvationVisible (satellite): busy-skips used to vanish
// silently; now they count in NodeStatus and a skip streak says so in
// the trace.
func TestBusySkipStarvationVisible(t *testing.T) {
	m := NewManager(func(addr string) (BMC, error) { return &flakyBMC{}, nil })
	defer m.Close()
	tr := telemetry.NewTrace(256)
	m.SetTelemetry(telemetry.NewRegistry(), tr)
	if err := m.AddNode("n", "x"); err != nil {
		t.Fatal(err)
	}
	n, err := m.node("n")
	if err != nil {
		t.Fatal(err)
	}
	if !n.tryAcquire() {
		t.Fatal("token unexpectedly held")
	}
	for i := 0; i < DefaultStarveSkips; i++ {
		m.Poll()
	}
	n.release()

	st := m.Nodes()[0]
	if st.BusySkips != DefaultStarveSkips {
		t.Errorf("BusySkips = %d, want %d", st.BusySkips, DefaultStarveSkips)
	}
	var starves int
	for _, ev := range tr.Tail(64, "n") {
		if ev.Kind == telemetry.EvBusyStarve {
			starves++
			if ev.N != int64(DefaultStarveSkips) {
				t.Errorf("starve event N = %d, want %d", ev.N, DefaultStarveSkips)
			}
		}
	}
	if starves != 1 {
		t.Errorf("EvBusyStarve emitted %d times, want once at the streak threshold", starves)
	}

	// A successful acquisition resets the streak, so the next stall
	// must again reach the threshold before re-alerting.
	m.Poll()
	m.mu.Lock()
	streak := n.consecSkips
	m.mu.Unlock()
	if streak != 0 {
		t.Errorf("consecSkips = %d after an unstarved round, want 0", streak)
	}
}

// TestP2Quantile: the streaming estimator must land near the true
// percentile on a uniform stream — and, being a pure function of the
// observation sequence, repeat itself exactly.
func TestP2Quantile(t *testing.T) {
	feed := func() float64 {
		var e p2Quantile
		// Deterministic pseudo-shuffle of 1..10000 via a full-cycle LCG.
		x := 1
		for i := 0; i < 10000; i++ {
			x = (x*5 + 3) % 10007
			e.Observe(float64(x%10000 + 1))
		}
		return e.Value()
	}
	v := feed()
	if v < 9700 || v > 10050 {
		t.Errorf("p99 over uniform 1..10000 = %v, want ≈9900", v)
	}
	if v2 := feed(); v2 != v {
		t.Errorf("estimator not deterministic: %v vs %v", v, v2)
	}

	// Below five samples the exact order statistic is returned.
	var e p2Quantile
	for _, s := range []float64{30, 10, 20} {
		e.Observe(s)
	}
	if got := e.Value(); got != 30 {
		t.Errorf("small-sample p99 = %v, want the max (30)", got)
	}
}

// TestP2QuantileValueSmallSampleNoAlloc: below five samples Value
// returns the exact order statistic without allocating — it is read on
// every poll of a node's first exchanges — and the same number the
// allocate-and-sort reading gave.
func TestP2QuantileValueSmallSampleNoAlloc(t *testing.T) {
	samples := []float64{30, 10, 20, 10, 5, 40}
	for n := 0; n <= len(samples); n++ {
		var e p2Quantile
		for _, v := range samples[:n] {
			e.Observe(v)
		}
		want := 0.0
		if n > 0 && n < 5 {
			s := append([]float64(nil), samples[:n]...)
			sort.Float64s(s)
			want = s[min(int(0.99*float64(n)), n-1)]
		} else if n >= 5 {
			want = e.q[2]
		}
		if got := e.Value(); got != want {
			t.Errorf("n=%d: Value = %v, want %v", n, got, want)
		}
		if a := testing.AllocsPerRun(100, func() { e.Value() }); a != 0 {
			t.Errorf("n=%d: Value allocates %.1f times per call, want 0", n, a)
		}
	}
}

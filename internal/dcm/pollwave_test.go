package dcm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"nodecap/internal/ipmi"
)

// TestPollWaveHungNodesCostOneTimeout: k BMCs in one chunk that take a
// status request and never answer it cost a sweep about one request
// timeout plus k × lateAwaitGrace, not k timeouts — every read of the
// chunk is on the wire before the first is awaited, so the deadlines
// run concurrently. Every other node is still sampled.
func TestPollWaveHungNodesCostOneTimeout(t *testing.T) {
	const (
		n, k    = 8, 4
		timeout = 300 * time.Millisecond
	)
	m, _, ctls := waveFleet(t, n, timeout, nil)
	mute := make(chan struct{})
	t.Cleanup(func() { close(mute) }) // runs before the servers close
	for _, c := range ctls[:k] {
		c.mu.Lock()
		c.mute = mute
		c.mu.Unlock()
	}
	start := time.Now()
	m.Poll()
	elapsed := time.Since(start)
	if elapsed >= 2*timeout {
		t.Errorf("%d silent nodes cost the sweep %v, want about one %v timeout", k, elapsed, timeout)
	}
	for i, st := range m.Nodes() {
		if hung := i < k; hung == st.Reachable || (!hung && (st.Last.At.Before(start) || st.Last.PowerWatts != 140)) {
			t.Errorf("node %d (hung=%v): %+v", i, hung, st)
		}
	}
}

// TestPollChargesEachNodeItsOwnExchange: one node whose link is slow,
// in a chunk of healthy ones, is the only node whose measured latency
// crosses SlowThreshold. The breaker sees each node's own send and
// await; the span from a node's send to its await also holds the sends
// of the nodes after it, the slow one's among them.
func TestPollChargesEachNodeItsOwnExchange(t *testing.T) {
	const (
		n, slow = 8, 5
		lat     = 500 * time.Microsecond
	)
	// Each clock read advances the clock 1 µs, and the slow node's link
	// advances it lat when it takes a request, as the chaos harness's
	// in-process links do.
	var clock atomic.Int64
	m := NewManager(func(addr string) (BMC, error) {
		var i int
		if _, err := fmt.Sscanf(addr, "n%d", &i); err != nil {
			return nil, err
		}
		srv := ipmi.NewServer(&bmcStub{power: 140})
		return ipmi.NewClientConn(ipmi.Loopback(func(req ipmi.Frame) (ipmi.Frame, error) {
			if i == slow {
				clock.Add(int64(lat))
			}
			return srv.Handle(req), nil
		})), nil
	})
	defer m.Close()
	m.Clock = func() time.Time { return time.Unix(0, clock.Add(int64(time.Microsecond))) }
	m.Breaker = BreakerConfig{SlowThreshold: 50 * time.Microsecond, SlowConsecutive: 100}
	for i := 0; i < n; i++ {
		if err := m.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		m.Poll()
	}
	for i, st := range m.Nodes() {
		if over := st.LatencyEWMA > m.Breaker.SlowThreshold; over != (i == slow) {
			t.Errorf("%s: latency EWMA %v (slow link: %v, threshold %v)", st.Name, st.LatencyEWMA, i == slow, m.Breaker.SlowThreshold)
		}
	}
}

// TestPollChargesEverySlowNodeOverTheWire: over sockets a node's answer
// may arrive while an earlier node of its chunk is awaited, so its own
// await takes no time. Three nodes of one chunk that answer slowly, on
// the server side, must each still cross SlowThreshold, and the healthy
// nodes between them must not.
func TestPollChargesEverySlowNodeOverTheWire(t *testing.T) {
	const (
		n         = 8
		threshold = 50 * time.Millisecond
		delay     = 150 * time.Millisecond
	)
	slow := map[int]bool{1: true, 2: true, 5: true}
	m, _, ctls := waveFleet(t, n, 2*time.Second, nil)
	m.Breaker = BreakerConfig{SlowThreshold: threshold, SlowConsecutive: 100}
	for round := 0; round < 2; round++ {
		mute := make(chan struct{})
		for i, c := range ctls {
			if slow[i] {
				c.mu.Lock()
				c.mute = mute
				c.mu.Unlock()
			}
		}
		time.AfterFunc(delay, func() { close(mute) })
		m.Poll()
	}
	for i, st := range m.Nodes() {
		if !st.Reachable {
			t.Fatalf("%s unreachable: %s", st.Name, st.LastError)
		}
		if over := st.LatencyEWMA > threshold; over != slow[i] {
			t.Errorf("%s: latency EWMA %v (slow: %v, threshold %v)", st.Name, st.LatencyEWMA, slow[i], threshold)
		}
	}
}

// downFleet registers n nodes n0… on in-process links. While down[i]
// is set, node i's link fails every request and a dial of it hangs for
// connect, then fails, as a connect to a blackholed BMC does. Every
// dial also advances clock by dialTime.
func downFleet(t *testing.T, n int, down []atomic.Bool, connect time.Duration, clock *atomic.Int64, dialTime time.Duration) *Manager {
	t.Helper()
	m := NewManager(func(addr string) (BMC, error) {
		var i int
		if _, err := fmt.Sscanf(addr, "n%d", &i); err != nil {
			return nil, err
		}
		clock.Add(int64(dialTime))
		if down[i].Load() {
			time.Sleep(connect)
			return nil, errors.New("connect timed out")
		}
		srv := ipmi.NewServer(&bmcStub{power: 140})
		return ipmi.NewClientConn(ipmi.Loopback(func(req ipmi.Frame) (ipmi.Frame, error) {
			if down[i].Load() {
				return ipmi.Frame{}, errors.New("link down")
			}
			return srv.Handle(req), nil
		})), nil
	})
	t.Cleanup(m.Close)
	m.RetryBaseDelay, m.RetryMaxDelay = time.Nanosecond, time.Nanosecond
	for i := 0; i < n; i++ {
		if err := m.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestPollWaveRedialsCostOneConnectTimeout: k disconnected nodes in one
// chunk whose connects hang until a connect timeout cost the sweep
// about one connect timeout, not k — a chunk's redials are dialed
// together. Every other node is still sampled.
func TestPollWaveRedialsCostOneConnectTimeout(t *testing.T) {
	const (
		n, k    = 8, 4
		connect = 300 * time.Millisecond
	)
	down := make([]atomic.Bool, n)
	var clock atomic.Int64
	m := downFleet(t, n, down, connect, &clock, 0)
	for i := 0; i < k; i++ {
		down[i].Store(true)
	}
	m.Poll() // the k reads fail and drop their connections
	start := time.Now()
	m.Poll()
	elapsed := time.Since(start)
	if elapsed >= 2*connect {
		t.Errorf("%d hung connects cost the sweep %v, want about one %v connect timeout", k, elapsed, connect)
	}
	for i, st := range m.Nodes() {
		if hung := i < k; hung == st.Reachable || (hung && st.ConsecFailures != 2) || (!hung && st.Last.At.Before(start)) {
			t.Errorf("node %d (hung=%v): %+v", i, hung, st)
		}
	}
}

// TestPollRedialIsNotChargedAsLatency: the sweep that redials a node
// charges the breaker the read on the new connection, not the connect
// before it: a slow connect is not a slow exchange.
func TestPollRedialIsNotChargedAsLatency(t *testing.T) {
	down := make([]atomic.Bool, 1)
	var clock atomic.Int64
	m := downFleet(t, 1, down, 0, &clock, time.Millisecond)
	m.Clock = func() time.Time { return time.Unix(0, clock.Add(int64(time.Microsecond))) }
	m.Breaker = BreakerConfig{FailureThreshold: 100, SlowThreshold: 50 * time.Microsecond, SlowConsecutive: 1}
	m.Poll()
	down[0].Store(true)
	m.Poll() // the read fails and drops the connection
	down[0].Store(false)
	m.Poll() // redials
	st := m.Nodes()[0]
	if !st.Reachable || st.Reconnects != 1 {
		t.Fatalf("after the redial: %+v", st)
	}
	if st.BreakerOpens != 0 || st.LatencyEWMA > m.Breaker.SlowThreshold {
		t.Errorf("a 1 ms connect was charged as exchange latency: EWMA %v, %d breaker opens", st.LatencyEWMA, st.BreakerOpens)
	}
}

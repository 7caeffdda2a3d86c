package ipmi

import (
	"errors"
	"net"
	"testing"
	"time"
)

// countingConn counts the writes and SetDeadline calls a client makes.
type countingConn struct {
	net.Conn
	writes, deadlines int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes++
	return c.Conn.Write(b)
}

func (c *countingConn) SetDeadline(t time.Time) error {
	c.deadlines++
	return c.Conn.SetDeadline(t)
}

// dialCounting connects a client to a fresh server over TCP through a
// countingConn.
func dialCounting(t *testing.T, ctl NodeControl) (*Client, *countingConn) {
	t.Helper()
	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	c := NewClientConn(cc)
	t.Cleanup(func() { c.Close() })
	return c, cc
}

// TestSplitPushHoldsClient: between SendPowerLimit and AwaitPowerLimit
// the client holds that one push — every other call fails with
// ErrPushInFlight and writes nothing — and the await lands it.
func TestSplitPushHoldsClient(t *testing.T) {
	ctl := &fakeControl{}
	c, cc := dialCounting(t, ctl)
	if err := c.SendPowerLimit(PowerLimit{Enabled: true, CapWatts: 140}); err != nil {
		t.Fatal(err)
	}
	writes := cc.writes
	if _, err := c.GetPowerReading(); !errors.Is(err, ErrPushInFlight) {
		t.Errorf("query during a push in flight: %v, want ErrPushInFlight", err)
	}
	if err := c.SendPowerLimit(PowerLimit{Enabled: true, CapWatts: 150}); !errors.Is(err, ErrPushInFlight) {
		t.Errorf("second send during a push in flight: %v, want ErrPushInFlight", err)
	}
	if err := c.SetPowerLimit(PowerLimit{Enabled: true, CapWatts: 150}); !errors.Is(err, ErrPushInFlight) {
		t.Errorf("SetPowerLimit during a push in flight: %v, want ErrPushInFlight", err)
	}
	if cc.writes != writes {
		t.Errorf("refused calls wrote %d frames", cc.writes-writes)
	}
	if err := c.AwaitPowerLimit(); err != nil {
		t.Fatalf("await: %v", err)
	}
	if err := c.AwaitPowerLimit(); err == nil {
		t.Error("a second await with nothing in flight succeeded")
	}
	if lim, err := c.GetPowerLimit(); err != nil || lim.CapWatts != 140 {
		t.Errorf("after the await: limit %+v, %v; want the pushed 140 W and a usable stream", lim, err)
	}
}

// TestSplitPushSurfacesCompletionCode: a refused push is reported at
// await, and the stream stays aligned for the next exchange.
func TestSplitPushSurfacesCompletionCode(t *testing.T) {
	ctl := &fakeControl{fail: true}
	c, _ := dialCounting(t, ctl)
	if err := c.SendPowerLimit(PowerLimit{Enabled: true, CapWatts: 140}); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitPowerLimit(); err == nil {
		t.Fatal("a push the BMC refused was acked")
	}
	if _, err := c.GetPowerReading(); err != nil {
		t.Errorf("stream unusable after a completion-code failure: %v", err)
	}
}

// TestOneDeadlinePerExchange: an exchange arms its deadline once, at
// send, and nothing clears it afterwards.
func TestOneDeadlinePerExchange(t *testing.T) {
	c, cc := dialCounting(t, &fakeControl{})
	c.SetRequestTimeout(time.Second)
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c.GetPowerReading(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetPowerLimit(PowerLimit{Enabled: true, CapWatts: 140}); err != nil {
		t.Fatal(err)
	}
	if cc.deadlines != n+1 {
		t.Errorf("%d exchanges made %d SetDeadline calls, want one each", n+1, cc.deadlines)
	}
}

// TestZeroTimeoutDisarmsStaleDeadline: the deadline an exchange leaves
// armed must not outlive SetRequestTimeout(0) — an exchange after the
// stale deadline has passed still succeeds.
func TestZeroTimeoutDisarmsStaleDeadline(t *testing.T) {
	c, _ := dialCounting(t, &fakeControl{})
	c.SetRequestTimeout(20 * time.Millisecond)
	if _, err := c.GetPowerReading(); err != nil {
		t.Fatal(err)
	}
	c.SetRequestTimeout(0)
	time.Sleep(50 * time.Millisecond) // past the deadline the exchange armed
	if _, err := c.GetPowerReading(); err != nil {
		t.Errorf("exchange after SetRequestTimeout(0) hit a stale deadline: %v", err)
	}
}

// TestLateAwaitReadsArrivedAck: pushes sent to a silent BMC and a live
// one, then awaited in that order, cost one timeout — and the live
// BMC's ack, which arrived while the silent one was being awaited, is
// still read although its own deadline has passed by then.
func TestLateAwaitReadsArrivedAck(t *testing.T) {
	const timeout = 100 * time.Millisecond
	silent, err := DialTimeout(silentServer(t), time.Second, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	live, _ := dialCounting(t, &fakeControl{})
	live.SetRequestTimeout(timeout)

	lim := PowerLimit{Enabled: true, CapWatts: 140}
	start := time.Now()
	if err := silent.SendPowerLimit(lim); err != nil {
		t.Fatal(err)
	}
	if err := live.SendPowerLimit(lim); err != nil {
		t.Fatal(err)
	}
	if err := silent.AwaitPowerLimit(); err == nil {
		t.Fatal("a silent BMC acked")
	}
	if err := live.AwaitPowerLimit(); err != nil {
		t.Errorf("the live BMC's ack was lost to its expired deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*timeout {
		t.Errorf("two awaits took %v, want about one %v timeout", elapsed, timeout)
	}
}

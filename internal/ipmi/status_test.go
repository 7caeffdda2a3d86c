package ipmi

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// getStatus reads a status the long way, one Get call per value.
func getStatus(c *Client) (NodeStatus, error) {
	var st NodeStatus
	var e [5]error
	st.Reading, e[0] = c.GetPowerReading()
	st.PState, e[1] = c.GetPStateInfo()
	st.Gating, e[2] = c.GetGatingLevel()
	st.Limit, e[3] = c.GetPowerLimit()
	st.Health, e[4] = c.GetHealth()
	return st, errors.Join(e[:]...)
}

// refusingServer is a Server whose connections answer every request
// for cmd with cc while refuse is set. It returns that dispatch too.
func refusingServer(cmd, cc uint8, refuse *atomic.Bool) (*Server, func([]byte, Frame) []byte) {
	srv := NewServer(&fakeControl{})
	srv.frameListener.respond = func(dst []byte, req Frame) []byte {
		if req.Cmd == cmd && refuse.Load() {
			return append(dst, cc)
		}
		return srv.respond(dst, req)
	}
	return srv, srv.frameListener.respond
}

// handler serves respond to a Loopback from one payload buffer, so that
// it allocates nothing once the buffer has grown.
func handler(respond func([]byte, Frame) []byte) func(Frame) (Frame, error) {
	var payload []byte
	return func(req Frame) (Frame, error) {
		payload = respond(payload[:0], req)
		return Frame{Seq: req.Seq, NetFn: NetFnOEMResponse, Cmd: req.Cmd, Payload: payload}, nil
	}
}

// TestReadStatusMatchesGetCalls: ReadStatus returns what the five Get
// calls return, fenced limit included, in one write on the connection.
func TestReadStatusMatchesGetCalls(t *testing.T) {
	ctl := &fakeControl{}
	c, cc := dialCounting(t, ctl)
	for _, lim := range []PowerLimit{{Enabled: true, CapWatts: 140, Epoch: 4}, {Enabled: true, CapWatts: 125.5}} {
		if err := c.SetPowerLimit(lim); err != nil {
			t.Fatal(err)
		}
		want, err := getStatus(c)
		if err != nil {
			t.Fatal(err)
		}
		writes := cc.writes
		got, err := c.ReadStatus()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("ReadStatus = %+v, want %+v", got, want)
		}
		if n := cc.writes - writes; n != 1 {
			t.Errorf("ReadStatus made %d writes, want 1", n)
		}
		if got.Limit != lim {
			t.Errorf("ReadStatus limit = %+v, want %+v", got.Limit, lim)
		}
	}
	if again, err := getStatus(c); err != nil || again.Gating != 2 {
		t.Errorf("Get calls after a status read: %+v, %v", again, err)
	}
}

// TestReadStatusCompletionCodeKeepsSession: a BMC that refuses a status
// read with a completion code other than CCInvalidCommand fails that
// read, and the next status read on the same client succeeds as one
// GetStatus exchange.
func TestReadStatusCompletionCodeKeepsSession(t *testing.T) {
	var refuse atomic.Bool
	refuse.Store(true)
	srv, _ := refusingServer(CmdGetStatus, CCUnspecified, &refuse)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTimeout(addr, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.ReadStatus(); err == nil || !strings.Contains(err.Error(), "0xff") {
		t.Fatalf("ReadStatus = %v, want completion code 0xff", err)
	}
	refuse.Store(false)
	if st, err := c.ReadStatus(); err != nil || st.Gating != 2 || st.Health.SensorFaults != 7 {
		t.Errorf("next ReadStatus on the same client: %+v, %v", st, err)
	}
	if c.legacy {
		t.Error("a refused status read made the client fall back to five Get exchanges")
	}
	if _, err := c.GetPowerReading(); err != nil {
		t.Errorf("Get after the refused status read: %v", err)
	}
}

// TestReadStatusSilentBMCCostsOneTimeout: a status read from a BMC that
// never answers is one exchange, so it fails in one request timeout
// plus lateAwaitGrace, not five timeouts.
func TestReadStatusSilentBMCCostsOneTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	c, err := DialTimeout(silentServer(t), time.Second, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.ReadStatus()
	elapsed := time.Since(start)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("ReadStatus = %v, want a net timeout", err)
	}
	if elapsed < timeout || elapsed > 3*timeout {
		t.Errorf("ReadStatus on a silent BMC took %v, want about %v + %v", elapsed, timeout, lateAwaitGrace)
	}
	if _, err := c.ReadStatus(); !errors.Is(err, ErrBroken) {
		t.Errorf("ReadStatus after a timed-out read = %v, want ErrBroken", err)
	}
}

// TestReadStatusRefusedDuringPush: between SendPowerLimit and
// AwaitPowerLimit a status read fails with ErrPushInFlight and writes
// nothing.
func TestReadStatusRefusedDuringPush(t *testing.T) {
	c, cc := dialCounting(t, &fakeControl{})
	if err := c.SendPowerLimit(PowerLimit{Enabled: true, CapWatts: 140}); err != nil {
		t.Fatal(err)
	}
	writes := cc.writes
	if _, err := c.ReadStatus(); !errors.Is(err, ErrPushInFlight) {
		t.Errorf("ReadStatus during a push in flight: %v, want ErrPushInFlight", err)
	}
	if cc.writes != writes {
		t.Errorf("a refused ReadStatus wrote %d times", cc.writes-writes)
	}
	if c.legacy {
		t.Error("a status read refused locally made the client fall back")
	}
	if err := c.AwaitPowerLimit(); err != nil {
		t.Fatal(err)
	}
	if st, err := c.ReadStatus(); err != nil || st.Limit.CapWatts != 140 {
		t.Errorf("ReadStatus after the await: %+v, %v", st, err)
	}
}

// TestReadStatusOverPipe: a status read is one exchange, so it works
// over net.Pipe, which does not buffer a write, against a server that
// answers each request before it reads the next.
func TestReadStatusOverPipe(t *testing.T) {
	cli, end := net.Pipe()
	srv := NewServer(&fakeControl{})
	srv.wg.Add(1)
	go srv.serveConn(end)
	c := NewClientConn(cli)
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		st, err := c.ReadStatus()
		if err == nil && (st.Reading.CurrentWatts != 151.2 || st.PState.FreqMHz != 2400 || !st.Health.FailSafe) {
			err = errors.New("wrong status")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadStatus over net.Pipe deadlocked")
	}
}

// TestReadStatusFallsBackForLegacyBMC: a BMC that predates GetStatus
// answers it CCInvalidCommand. The client then returns the five Get
// exchanges' status for that read and every later one, and never asks
// for GetStatus again.
func TestReadStatusFallsBackForLegacyBMC(t *testing.T) {
	var refuse atomic.Bool
	refuse.Store(true)
	_, legacy := refusingServer(CmdGetStatus, CCInvalidCommand, &refuse)
	handle := handler(legacy)
	var cmds []uint8
	c := NewClientConn(Loopback(func(req Frame) (Frame, error) {
		cmds = append(cmds, req.Cmd)
		return handle(req)
	}))
	if err := c.SetPowerLimit(PowerLimit{Enabled: true, CapWatts: 133, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	want, err := getStatus(c)
	if err != nil {
		t.Fatal(err)
	}
	five := string([]uint8{CmdGetPowerReading, CmdGetPStateInfo, CmdGetGatingLevel, CmdGetPowerLimit, CmdGetHealth})
	for i, wantCmds := range []string{string(rune(CmdGetStatus)) + five, five} {
		cmds = cmds[:0]
		got, err := c.ReadStatus()
		if err != nil || got != want {
			t.Errorf("read %d from a legacy BMC = %+v, %v; want %+v", i, got, err, want)
		}
		if string(cmds) != wantCmds {
			t.Errorf("read %d sent commands %x, want %x", i, cmds, wantCmds)
		}
	}
}

// TestReadStatusAllocatesNothing: a status read allocates nothing once
// the client's two buffers exist — over one GetStatus exchange and over
// a legacy BMC's five — and its response fits the inline read buffer,
// so the client keeps its first buffers.
func TestReadStatusAllocatesNothing(t *testing.T) {
	srv := NewServer(&fakeControl{})
	var refuse atomic.Bool
	refuse.Store(true)
	_, legacy := refusingServer(CmdGetStatus, CCInvalidCommand, &refuse)
	mem := NewClientConn(&memConn{srv: srv, out: make([]byte, 0, inlineFrameLen)})
	loop := NewClientConn(Loopback(handler(legacy)))
	for _, c := range []*Client{mem, loop} {
		c.SetRequestTimeout(time.Second)
		if err := c.SetPowerLimit(PowerLimit{Enabled: true, CapWatts: 140, Epoch: 9}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadStatus(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.ReadStatus(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ReadStatus (legacy %v) allocated %v times, want 0", c.legacy, n)
		}
		if got := cap(c.req) + len(c.rd.buf); got != inlineReqLen+inlineFrameLen {
			t.Errorf("after status reads (legacy %v) the client holds %d buffer bytes, want %d", c.legacy, got, inlineReqLen+inlineFrameLen)
		}
	}
	if mem.legacy || !loop.legacy {
		t.Fatalf("legacy = %v, %v; want false, true", mem.legacy, loop.legacy)
	}
}

// TestLoopbackReceivesStatusAsOneFrame: over a Loopback, a status read
// reaches the handler as one payload-less GetStatus request.
func TestLoopbackReceivesStatusAsOneFrame(t *testing.T) {
	srv := NewServer(&fakeControl{})
	var seen []Frame
	c := NewClientConn(Loopback(func(req Frame) (Frame, error) {
		seen = append(seen, Frame{Seq: req.Seq, NetFn: req.NetFn, Cmd: req.Cmd, Payload: append([]byte(nil), req.Payload...)})
		return srv.Handle(req), nil
	}))
	if _, err := c.ReadStatus(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Cmd != CmdGetStatus || seen[0].NetFn != NetFnOEM || len(seen[0].Payload) != 0 {
		t.Fatalf("the handler saw %+v, want one payload-less GetStatus", seen)
	}
}

// TestSplitStatusOverPipe: two status reads sent before either is
// awaited complete over net.Pipe, which does not buffer a write, each
// against a server that answers a request before it reads the next.
func TestSplitStatusOverPipe(t *testing.T) {
	var clients [2]*Client
	for i := range clients {
		cli, end := net.Pipe()
		srv := NewServer(&fakeControl{})
		srv.wg.Add(1)
		go srv.serveConn(end)
		clients[i] = NewClientConn(cli)
		defer clients[i].Close()
	}
	done := make(chan error, 1)
	go func() {
		for _, c := range clients {
			if err := c.SendStatus(); err != nil {
				done <- err
				return
			}
		}
		for _, c := range clients {
			st, err := c.AwaitStatus()
			if err == nil && (st.Reading.CurrentWatts != 151.2 || st.PState.FreqMHz != 2400 || !st.Health.FailSafe) {
				err = errors.New("wrong status")
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("split status reads over net.Pipe deadlocked")
	}
}

// TestSplitStatusLegacyAtAwait: a BMC that refuses GetStatus is found
// out at the await, which then makes the read as the five Get
// exchanges; from then on SendStatus sends nothing and AwaitStatus
// makes the five.
func TestSplitStatusLegacyAtAwait(t *testing.T) {
	var refuse atomic.Bool
	refuse.Store(true)
	_, legacy := refusingServer(CmdGetStatus, CCInvalidCommand, &refuse)
	handle := handler(legacy)
	var cmds []uint8
	c := NewClientConn(Loopback(func(req Frame) (Frame, error) {
		cmds = append(cmds, req.Cmd)
		return handle(req)
	}))
	want, err := getStatus(c)
	if err != nil {
		t.Fatal(err)
	}
	five := string([]uint8{CmdGetPowerReading, CmdGetPStateInfo, CmdGetGatingLevel, CmdGetPowerLimit, CmdGetHealth})
	for i, wantSent := range []string{string(rune(CmdGetStatus)), ""} {
		cmds = cmds[:0]
		if err := c.SendStatus(); err != nil {
			t.Fatal(err)
		}
		if string(cmds) != wantSent {
			t.Errorf("send %d sent commands %x, want %x", i, cmds, wantSent)
		}
		cmds = cmds[:0]
		got, err := c.AwaitStatus()
		if err != nil || got != want {
			t.Errorf("await %d = %+v, %v; want %+v", i, got, err, want)
		}
		if string(cmds) != five {
			t.Errorf("await %d sent commands %x, want the five Gets %x", i, cmds, five)
		}
		if !c.legacy {
			t.Fatalf("after await %d the client is not legacy", i)
		}
	}
}

// TestSplitCrossAwaitsRefused: the client holds one exchange. With a
// push in flight, a status send or await fails with ErrPushInFlight and
// touches the connection not at all; with a status read in flight, so
// does a push's await. Each held exchange then completes.
func TestSplitCrossAwaitsRefused(t *testing.T) {
	mc := &memConn{srv: NewServer(&fakeControl{})}
	c := NewClientConn(mc)
	touched := func() int { return mc.reads + mc.off }
	if err := c.SendPowerLimit(PowerLimit{Enabled: true, CapWatts: 140}); err != nil {
		t.Fatal(err)
	}
	before := touched()
	if err := c.SendStatus(); !errors.Is(err, ErrPushInFlight) {
		t.Errorf("SendStatus during a push: %v, want ErrPushInFlight", err)
	}
	if _, err := c.AwaitStatus(); !errors.Is(err, ErrPushInFlight) {
		t.Errorf("AwaitStatus during a push: %v, want ErrPushInFlight", err)
	}
	if touched() != before {
		t.Error("a refused status call read from the connection")
	}
	if err := c.AwaitPowerLimit(); err != nil {
		t.Fatalf("the push's await after refused status calls: %v", err)
	}

	if err := c.SendStatus(); err != nil {
		t.Fatal(err)
	}
	before = touched()
	if err := c.AwaitPowerLimit(); !errors.Is(err, ErrPushInFlight) {
		t.Errorf("AwaitPowerLimit during a status read: %v, want ErrPushInFlight", err)
	}
	if err := c.SendPowerLimit(PowerLimit{Enabled: true, CapWatts: 150}); !errors.Is(err, ErrPushInFlight) {
		t.Errorf("SendPowerLimit during a status read: %v, want ErrPushInFlight", err)
	}
	if touched() != before {
		t.Error("a refused push call touched the connection")
	}
	if st, err := c.AwaitStatus(); err != nil || st.Limit.CapWatts != 140 {
		t.Errorf("the status read's await after refused push calls: %+v, %v", st, err)
	}
	if _, err := c.AwaitStatus(); err == nil {
		t.Error("a second await with nothing in flight succeeded")
	}
}

// TestSplitStatusAllocatesNothing: a split status read allocates
// nothing once the client's buffers exist, over one GetStatus exchange
// and over a legacy BMC's five.
func TestSplitStatusAllocatesNothing(t *testing.T) {
	var refuse atomic.Bool
	refuse.Store(true)
	_, legacy := refusingServer(CmdGetStatus, CCInvalidCommand, &refuse)
	mem := NewClientConn(&memConn{srv: NewServer(&fakeControl{}), out: make([]byte, 0, inlineFrameLen)})
	loop := NewClientConn(Loopback(handler(legacy)))
	for _, c := range []*Client{mem, loop} {
		c.SetRequestTimeout(time.Second)
		read := func() {
			if err := c.SendStatus(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.AwaitStatus(); err != nil {
				t.Fatal(err)
			}
		}
		read()
		if n := testing.AllocsPerRun(200, read); n != 0 {
			t.Errorf("a split status read (legacy %v) allocated %v times, want 0", c.legacy, n)
		}
	}
	if mem.legacy || !loop.legacy {
		t.Fatalf("legacy = %v, %v; want false, true", mem.legacy, loop.legacy)
	}
}

// heldConn is a server's end of a pipe whose writes wait for hold to
// close and then report on wrote that they are being made: it makes a
// BMC answer when the test lets it.
type heldConn struct {
	net.Conn
	hold  <-chan struct{}
	wrote chan<- struct{}
}

func (c heldConn) Write(b []byte) (int, error) {
	<-c.hold
	c.wrote <- struct{}{}
	return c.Conn.Write(b)
}

// TestAwaitStatusByLeavesReadInFlight: an AwaitStatusBy whose
// bound passes before the BMC answers fails with ErrStillAwaiting, and
// so does one that only finds the bound past; the read stays in flight,
// and AwaitStatus completes it. An answer already on the connection is
// taken though the bound has passed. With and without a request
// timeout, the exchanges after a bounded await keep their own deadlines.
func TestAwaitStatusByLeavesReadInFlight(t *testing.T) {
	const bound = 5 * time.Millisecond
	for _, timeout := range []time.Duration{0, time.Second} {
		hold, wrote := make(chan struct{}), make(chan struct{}, 3)
		cli, end := net.Pipe()
		srv := NewServer(&fakeControl{})
		srv.wg.Add(1)
		go srv.serveConn(heldConn{end, hold, wrote})
		c := NewClientConn(cli)
		defer c.Close()
		c.SetRequestTimeout(timeout)

		if err := c.SendStatus(); err != nil {
			t.Fatal(err)
		}
		by := time.Now().Add(bound)
		for i := 0; i < 2; i++ {
			if _, err := c.AwaitStatusBy(by); !errors.Is(err, ErrStillAwaiting) {
				t.Fatalf("timeout %v: bounded await %d of a BMC yet to answer: %v, want ErrStillAwaiting", timeout, i, err)
			}
		}
		close(hold)
		if st, err := c.AwaitStatus(); err != nil || st.Reading.CurrentWatts != 151.2 {
			t.Fatalf("timeout %v: completing the read: %+v, %v", timeout, st, err)
		}
		<-wrote

		if err := c.SendStatus(); err != nil {
			t.Fatal(err)
		}
		by = time.Now().Add(bound)
		<-wrote
		time.Sleep(10 * bound) // the bound passes while the answer waits
		if st, err := c.AwaitStatusBy(by); err != nil || st.Reading.CurrentWatts != 151.2 {
			t.Fatalf("timeout %v: an answer waiting past the bound: %+v, %v", timeout, st, err)
		}
		time.Sleep(2 * bound) // past the deadline the bounded await left
		if _, err := c.ReadStatus(); err != nil {
			t.Fatalf("timeout %v: the read after a bounded await: %v", timeout, err)
		}
	}
}

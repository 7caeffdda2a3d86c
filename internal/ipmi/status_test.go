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

// TestReadStatusMatchesGetCalls: ReadStatus returns what the five Get
// calls return, and over a connection that buffers a burst it writes
// all five requests at once.
func TestReadStatusMatchesGetCalls(t *testing.T) {
	ctl := &fakeControl{}
	c, cc := dialCounting(t, ctl)
	c.burst = true // the counting wrapper hides the TCP conn; burst as Dial's client does
	if err := c.SetPowerLimit(PowerLimit{Enabled: true, CapWatts: 140, Epoch: 4}); err != nil {
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
	if again, err := getStatus(c); err != nil || again != want {
		t.Errorf("Get calls after a burst: %+v, %v", again, err)
	}

	srv := NewServer(ctl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dialed, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	if !dialed.burst {
		t.Error("a dialed TCP client does not burst")
	}
	if got, err := dialed.ReadStatus(); err != nil || got != want {
		t.Errorf("dialed ReadStatus = %+v, %v; want %+v", got, err, want)
	}
}

// TestReadStatusDrainsBurstAfterCompletionCode: a BMC that refuses the
// third request of a burst fails the read with that completion code,
// and the client reads the last two responses anyway, so its next call
// succeeds on the same connection.
func TestReadStatusDrainsBurstAfterCompletionCode(t *testing.T) {
	srv := NewServer(&fakeControl{})
	var refuse atomic.Bool
	refuse.Store(true)
	respond := srv.respond
	srv.frameListener.respond = func(dst []byte, req Frame) []byte {
		if req.Cmd == CmdGetGatingLevel && refuse.Load() {
			return append(dst, CCInvalidCommand)
		}
		return respond(dst, req)
	}
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

	if _, err := c.ReadStatus(); err == nil || !strings.Contains(err.Error(), "0xc1") {
		t.Fatalf("ReadStatus = %v, want completion code 0xc1", err)
	}
	refuse.Store(false)
	if st, err := c.ReadStatus(); err != nil || st.Gating != 2 || st.Health.SensorFaults != 7 {
		t.Errorf("next ReadStatus on the same client: %+v, %v", st, err)
	}
	if _, err := c.GetPowerReading(); err != nil {
		t.Errorf("Get after the refused burst: %v", err)
	}
}

// TestReadStatusSilentBMCCostsOneTimeout: a burst to a BMC that never
// answers runs under the one deadline armed at send, so it fails in one
// request timeout plus lateAwaitGrace, not five timeouts.
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
		t.Errorf("ReadStatus after a timed-out burst = %v, want ErrBroken", err)
	}
}

// TestReadStatusRefusedDuringPush: between SendPowerLimit and
// AwaitPowerLimit a status read fails with ErrPushInFlight and writes
// nothing.
func TestReadStatusRefusedDuringPush(t *testing.T) {
	c, cc := dialCounting(t, &fakeControl{})
	c.burst = true
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
	if err := c.AwaitPowerLimit(); err != nil {
		t.Fatal(err)
	}
	if st, err := c.ReadStatus(); err != nil || st.Limit.CapWatts != 140 {
		t.Errorf("ReadStatus after the await: %+v, %v", st, err)
	}
}

// TestReadStatusOverPipe: net.Pipe does not buffer, so a client over
// it reads the status in five exchanges and does not deadlock against
// a server that answers each request before it reads the next.
func TestReadStatusOverPipe(t *testing.T) {
	cli, end := net.Pipe()
	srv := NewServer(&fakeControl{})
	srv.wg.Add(1)
	go srv.serveConn(end)
	c := NewClientConn(cli)
	defer c.Close()
	if c.burst {
		t.Fatal("a client over net.Pipe bursts")
	}
	done := make(chan error, 1)
	go func() {
		st, err := c.ReadStatus()
		if err == nil && st.Reading.CurrentWatts != 151.2 {
			err = errors.New("wrong reading")
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

// TestReadStatusAllocatesNothing: once the client's buffers have grown
// for a burst, a status read allocates nothing, burst or not.
func TestReadStatusAllocatesNothing(t *testing.T) {
	srv := NewServer(&fakeControl{})
	var payload []byte
	burst := NewClientConn(Loopback(func(req Frame) (Frame, error) {
		payload = srv.respond(payload[:0], req)
		return Frame{Seq: req.Seq, NetFn: NetFnOEMResponse, Cmd: req.Cmd, Payload: payload}, nil
	}))
	seq := NewClientConn(&memConn{srv: srv, out: make([]byte, 0, inlineFrameLen)})
	for _, c := range []*Client{burst, seq} {
		c.SetRequestTimeout(time.Second)
		if _, err := c.ReadStatus(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.ReadStatus(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ReadStatus (burst %v) allocated %v times, want 0", c.burst, n)
		}
	}
	if got := cap(seq.req) + len(seq.rd.buf); got != 2*inlineFrameLen {
		t.Errorf("a client that never bursts holds %d buffer bytes, want %d", got, 2*inlineFrameLen)
	}
}

// TestLoopbackReceivesStatusAsOneWrite: over a Loopback, ReadStatus's
// five requests reach the handler within one Write — the responses to
// the earlier ones are still waiting to be read when the later ones
// arrive.
func TestLoopbackReceivesStatusAsOneWrite(t *testing.T) {
	srv := NewServer(&fakeControl{})
	var lc *loopConn
	var queued []int
	lc = Loopback(func(req Frame) (Frame, error) {
		queued = append(queued, len(lc.out))
		return srv.Handle(req), nil
	}).(*loopConn)
	c := NewClientConn(lc)
	if _, err := c.ReadStatus(); err != nil {
		t.Fatal(err)
	}
	if len(queued) != len(statusCmds) {
		t.Fatalf("the handler saw %d requests, want %d", len(queued), len(statusCmds))
	}
	for i := 1; i < len(queued); i++ {
		if queued[i] <= queued[i-1] {
			t.Fatalf("unread response bytes at each request: %v; want them growing within one Write", queued)
		}
	}
}

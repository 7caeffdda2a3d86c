package main

import (
	"bytes"
	"math"
	"net"
	"testing"

	"nodecap/internal/ipmi"
)

// recordingConn keeps every byte the client read: the response frames.
type recordingConn struct {
	net.Conn
	rx bytes.Buffer
}

func (c *recordingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rx.Write(b[:n])
	return n, err
}

// exchangeAll drives all eight commands through c and returns the
// response bytes of each.
func exchangeAll(t *testing.T, conn net.Conn) [][]byte {
	t.Helper()
	rec := &recordingConn{Conn: conn}
	c := ipmi.NewClientConn(rec)
	defer c.Close()
	lim := ipmi.PowerLimit{Enabled: true, CapWatts: 141.37, Epoch: 3}
	calls := []func() error{
		func() error { _, err := c.GetDeviceID(); return err },
		func() error { _, err := c.GetPowerReading(); return err },
		func() error { return c.SetPowerLimit(lim) },
		func() error { _, err := c.GetPowerLimit(); return err },
		func() error { _, err := c.GetPStateInfo(); return err },
		func() error { _, err := c.GetGatingLevel(); return err },
		func() error { _, err := c.GetCapabilities(); return err },
		func() error { _, err := c.GetHealth(); return err },
	}
	var out [][]byte
	for i, call := range calls {
		rec.rx.Reset()
		if err := call(); err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		out = append(out, append([]byte(nil), rec.rx.Bytes()...))
	}
	return out
}

func TestLinksReturnIdenticalPayloads(t *testing.T) {
	var got [2][][]byte
	for k, wire := range []bool{false, true} {
		p, err := newPlant(2, wire, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.close()
		p.eng.PushPolicy(1, true, 135, 0)
		p.eng.Tick(50)
		var conn net.Conn = &loopConn{srv: p.srvs[1]}
		if wire {
			if conn, err = net.Dial("tcp", p.addrs[1]); err != nil {
				t.Fatal(err)
			}
		}
		got[k] = exchangeAll(t, conn)
	}
	for i := range got[0] {
		if len(got[0][i]) == 0 || !bytes.Equal(got[0][i], got[1][i]) {
			t.Errorf("command %d: in-process link answered % x, TCP link % x", i, got[0][i], got[1][i])
		}
	}
}

func TestWattQuantumComesFromTheCodec(t *testing.T) {
	q, err := wattQuantum()
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(w float64) float64 {
		lim, err := ipmi.DecodePowerLimit(ipmi.EncodePowerLimit(ipmi.PowerLimit{Enabled: true, CapWatts: w}))
		if err != nil {
			t.Fatal(err)
		}
		return lim.CapWatts
	}
	if q <= 0 || q > 1 {
		t.Fatalf("quantum %v W", q)
	}
	// The codec resolves one quantum and nothing finer.
	if roundTrip(100+q) == roundTrip(100) {
		t.Errorf("a %v W step does not survive the codec", q)
	}
	if d := math.Abs(roundTrip(100+q/4) - roundTrip(100)); d != 0 && math.Abs(d-q) > q/1e6 {
		t.Errorf("a quarter-quantum step moved the decoded cap by %v W", d)
	}
	for _, w := range []float64{122.2, 133.3333333, 140.004999, 151.987654321, 180} {
		if d := math.Abs(roundTrip(w) - w); d > q {
			t.Errorf("%v W comes back %v W off, more than the quantum %v", w, d, q)
		}
	}
}

// TestClosedServerFailsTheCheck shows the output check has teeth: with
// one node's BMC endpoint gone, ops fail.
func TestClosedServerFailsTheCheck(t *testing.T) {
	w, _ := findWorkload("budget_push")
	build := w.build
	w.build = func(e *env) (cycle, error) {
		c, err := build(e)
		if err == nil {
			c.(*budgetPush).r.srvs[5].Close()
		}
		return c, err
	}
	res, err := runWorkload(w, &env{seed: 1, nproc: 2, dir: t.TempDir(), toy: true}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 3 || res.failed == 0 {
		t.Fatalf("%d of %d ops failed with a BMC endpoint closed", res.failed, res.attempted)
	}
	if ratio := float64(res.failed) / float64(res.attempted); ratio <= 0 {
		t.Fatalf("fail ratio %v", ratio)
	}
	t.Logf("first failure: %v", res.firstErr)
}

func TestCheckCapsCatchesAWrongCap(t *testing.T) {
	e := &env{seed: 2, nproc: 2, dir: t.TempDir(), toy: true}
	c, err := buildFleetSoak(e)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	f := c.(*fleetSoak)
	for i := 0; i < 2; i++ {
		if err := f.prepare(i); err != nil {
			t.Fatal(err)
		}
		if err := f.op(i); err != nil {
			t.Fatal(err)
		}
		if err := f.check(i); err != nil {
			t.Fatalf("healthy rig fails its check: %v", err)
		}
	}
	// Two quanta off on one node, behind the managers' backs.
	_, w := f.r.eng.Policy(9)
	f.r.eng.PushPolicy(9, true, w+2*f.r.quantum, 0)
	if err := f.check(1); err == nil {
		t.Fatal("a cap two quanta off its desired value passed the check")
	}
}

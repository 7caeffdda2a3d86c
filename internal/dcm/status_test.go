package dcm

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nodecap/internal/ipmi"
)

// TestPollSendsOneStatusFrame: a poll reads a node with one GetStatus
// exchange on its link — here an ipmi.Loopback, the chaos harness's
// link. The link garbles the response's sequence number, and the poll
// records that one failure.
func TestPollSendsOneStatusFrame(t *testing.T) {
	srv := ipmi.NewServer(&bmcStub{power: 140})
	var mu sync.Mutex
	var polling bool
	var cmds []uint8
	m := NewManager(func(string) (BMC, error) {
		return ipmi.NewClientConn(ipmi.Loopback(func(req ipmi.Frame) (ipmi.Frame, error) {
			resp := srv.Handle(req)
			mu.Lock()
			defer mu.Unlock()
			if polling {
				if len(cmds) == 0 {
					resp.Seq++
				}
				cmds = append(cmds, req.Cmd)
			}
			return resp, nil
		})), nil
	})
	defer m.Close()
	if err := m.AddNode("a", "loop"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	polling = true
	mu.Unlock()
	m.Poll()

	mu.Lock()
	got := append([]uint8(nil), cmds...)
	mu.Unlock()
	if string(got) != string([]uint8{ipmi.CmdGetStatus}) {
		t.Errorf("a poll whose response was garbled sent commands %x, want one GetStatus", got)
	}
	if st := m.Nodes()[0]; st.ConsecFailures != 1 || !strings.Contains(st.LastError, "sequence mismatch") {
		t.Errorf("the garbled poll left %+v, want one sequence-mismatch failure", st)
	}
}

// TestPollReadsStatusOverWire: a poll over real TCP sessions, one
// GetStatus exchange per node, records what each BMC reports.
func TestPollReadsStatusOverWire(t *testing.T) {
	m, names, ctls := waveFleet(t, 3, time.Second, nil)
	for i, c := range ctls {
		c.mu.Lock()
		c.power = 100 + float64(i)
		c.limit = ipmi.PowerLimit{Enabled: true, CapWatts: 150 + float64(i)}
		c.mu.Unlock()
	}
	m.Poll()
	for i, st := range m.Nodes() {
		if st.Name != names[i] || st.Last.PowerWatts != 100+float64(i) || st.Last.FreqMHz != 2700 ||
			st.ReportedCapWatts != 150+float64(i) || !st.ReportedCapEnabled || st.ConsecFailures != 0 {
			t.Errorf("node %d after a wire poll: %+v", i, st)
		}
	}
}

// BenchmarkPollWire times poll sweeps over 256 loopback ipmi.Servers,
// each node on its own connection; us/node is the wall time of a sweep
// per node.
func BenchmarkPollWire(b *testing.B) {
	const nodes = 256
	m, _, _ := waveFleet(b, nodes, ipmi.DefaultRequestTimeout, nil)
	m.Poll() // dial every session before the clock starts
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		m.Poll()
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N*nodes), "us/node")
}

// inProcConn is the benchmark rig's in-process link: Write decodes the
// request frame with ipmi.ReadFrame, dispatches it through the node's
// ipmi.Server.Handle and queues the marshalled response for Read.
type inProcConn struct {
	srv *ipmi.Server
	rd  bytes.Reader
}

func (c *inProcConn) Write(b []byte) (int, error) {
	req, err := ipmi.ReadFrame(bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	rb, err := c.srv.Handle(req).Marshal()
	if err != nil {
		return 0, err
	}
	c.rd.Reset(rb)
	return len(b), nil
}

func (c *inProcConn) Read(p []byte) (int, error)       { return c.rd.Read(p) }
func (c *inProcConn) Close() error                     { return nil }
func (c *inProcConn) LocalAddr() net.Addr              { return nil }
func (c *inProcConn) RemoteAddr() net.Addr             { return nil }
func (c *inProcConn) SetDeadline(time.Time) error      { return nil }
func (c *inProcConn) SetReadDeadline(time.Time) error  { return nil }
func (c *inProcConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkPollInProc times poll sweeps over 1 024 nodes, each reached
// by its own ipmi.Client over an inProcConn, the link the benchmark
// rig's in-process fleet polls through. us/node is the wall time of a
// sweep per node and B/node the bytes it allocates per node.
func BenchmarkPollInProc(b *testing.B) {
	const nodes = 1024
	srvs := make([]*ipmi.Server, nodes)
	for i := range srvs {
		srvs[i] = ipmi.NewServer(&bmcStub{power: 140 + float64(i%16)})
	}
	m := NewManager(func(addr string) (BMC, error) {
		i, err := strconv.Atoi(addr)
		if err != nil {
			return nil, err
		}
		return ipmi.NewClientConn(&inProcConn{srv: srvs[i]}), nil
	})
	defer m.Close()
	for i := range srvs {
		if err := m.AddNode(fmt.Sprintf("n%04d", i), strconv.Itoa(i)); err != nil {
			b.Fatal(err)
		}
	}
	m.Poll() // dial every session before the clock starts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		m.Poll()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N*nodes), "us/node")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*nodes), "B/node")
}

package dcm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"nodecap/internal/ipmi"
)

// TestPollSendsStatusAsOneBurst: over a link that buffers what is
// written to it — here an ipmi.Loopback, the chaos harness's link — a
// poll's five requests all reach the BMC before the manager reads any
// response. The link garbles the sequence number of the first response;
// the other four requests arrive anyway, in the Get calls' order.
func TestPollSendsStatusAsOneBurst(t *testing.T) {
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

	want := []uint8{ipmi.CmdGetPowerReading, ipmi.CmdGetPStateInfo, ipmi.CmdGetGatingLevel, ipmi.CmdGetPowerLimit, ipmi.CmdGetHealth}
	mu.Lock()
	got := append([]uint8(nil), cmds...)
	mu.Unlock()
	if string(got) != string(want) {
		t.Errorf("a poll whose first response was garbled sent commands %x, want %x", got, want)
	}
	if st := m.Nodes()[0]; st.ConsecFailures != 1 || !strings.Contains(st.LastError, "sequence mismatch") {
		t.Errorf("the garbled poll left %+v, want one sequence-mismatch failure", st)
	}
}

// TestPollReadsStatusOverWire: a poll over real TCP sessions, where
// the status read is one burst, records what each BMC reports.
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

package dcm

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nodecap/internal/ipmi"
)

// fakeBMC is a scripted node.
type fakeBMC struct {
	mu      sync.Mutex
	power   float64
	limit   ipmi.PowerLimit
	minCap  float64
	maxCap  float64
	capTier uint8
	fail    bool
	setErr  error // scripted SetPowerLimit failure (e.g. ipmi.ErrStaleEpoch)
	closed  bool
	pstate  ipmi.PStateInfo
	gating  int
	health  ipmi.Health
}

func newFakeBMC(power float64) *fakeBMC {
	return &fakeBMC{power: power, minCap: 123, maxCap: 180,
		pstate: ipmi.PStateInfo{Index: 0, Count: 16, FreqMHz: 2700}}
}

func (f *fakeBMC) GetDeviceID() (ipmi.DeviceInfo, error) {
	return ipmi.DeviceInfo{DeviceID: 1}, nil
}
func (f *fakeBMC) GetPowerReading() (ipmi.PowerReading, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return ipmi.PowerReading{}, errors.New("unreachable")
	}
	return ipmi.PowerReading{CurrentWatts: f.power, AverageWatts: f.power}, nil
}
func (f *fakeBMC) SetPowerLimit(l ipmi.PowerLimit) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errors.New("unreachable")
	}
	if f.setErr != nil {
		return f.setErr
	}
	f.limit = l
	return nil
}
func (f *fakeBMC) GetPowerLimit() (ipmi.PowerLimit, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.limit, nil
}
func (f *fakeBMC) GetPStateInfo() (ipmi.PStateInfo, error) { return f.pstate, nil }
func (f *fakeBMC) GetGatingLevel() (int, error)            { return f.gating, nil }
func (f *fakeBMC) GetCapabilities() (ipmi.Capabilities, error) {
	return ipmi.Capabilities{MinCapWatts: f.minCap, MaxCapWatts: f.maxCap, Tier: f.capTier}, nil
}
func (f *fakeBMC) GetHealth() (ipmi.Health, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.health, nil
}
func (f *fakeBMC) Close() error { f.closed = true; return nil }

// fleet builds a manager over fakes addressed by name.
func fleet(bmcs map[string]*fakeBMC) *Manager {
	return NewManager(func(addr string) (BMC, error) {
		b, ok := bmcs[addr]
		if !ok {
			return nil, errors.New("no route")
		}
		return b, nil
	})
}

func TestAddRemoveNodes(t *testing.T) {
	bmcs := map[string]*fakeBMC{"a:623": newFakeBMC(150)}
	m := fleet(bmcs)
	if err := m.AddNode("node-a", "a:623"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode("node-a", "a:623"); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := m.AddNode("node-b", "missing:623"); err == nil {
		t.Error("unreachable node accepted")
	}
	ns := m.Nodes()
	if len(ns) != 1 || ns[0].Name != "node-a" || ns[0].MinCapWatts != 123 {
		t.Errorf("Nodes = %+v", ns)
	}
	if err := m.RemoveNode("node-a"); err != nil {
		t.Fatal(err)
	}
	if !bmcs["a:623"].closed {
		t.Error("connection not closed on removal")
	}
	if err := m.RemoveNode("node-a"); err == nil {
		t.Error("double removal accepted")
	}
}

func TestSetNodeCap(t *testing.T) {
	b := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": b})
	m.AddNode("n", "a")
	if err := m.SetNodeCap("n", 140); err != nil {
		t.Fatal(err)
	}
	if !b.limit.Enabled || b.limit.CapWatts != 140 {
		t.Errorf("limit = %+v", b.limit)
	}
	if err := m.SetNodeCap("n", 0); err != nil {
		t.Fatal(err)
	}
	if b.limit.Enabled {
		t.Error("cap 0 did not disable capping")
	}
	if err := m.SetNodeCap("ghost", 140); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestSetNodeCapRefusesNonFinite(t *testing.T) {
	for _, stateDir := range []bool{false, true} {
		for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			b := newFakeBMC(150)
			m := fleet(map[string]*fakeBMC{"a": b})
			if stateDir {
				if err := m.OpenStateDir(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			m.AddNode("n", "a")
			if err := m.SetNodeCap("n", 140); err != nil {
				t.Fatal(err)
			}
			before := m.Nodes()
			if err := m.SetNodeCap("n", w); err == nil {
				t.Errorf("state dir %v: cap %v W accepted", stateDir, w)
			}
			if after := m.Nodes(); after[0].CapWatts != 140 || !after[0].CapEnabled || after[0] != before[0] {
				t.Errorf("state dir %v: cap %v W changed desired state to %+v", stateDir, w, after[0])
			}
			m.Poll()
			if lim := b.limit; !lim.Enabled || lim.CapWatts != 140 {
				t.Errorf("state dir %v: after cap %v W and a poll the BMC holds %+v", stateDir, w, lim)
			}
			m.Close()
		}
	}
}

func TestPollAndHistory(t *testing.T) {
	b := newFakeBMC(151)
	m := fleet(map[string]*fakeBMC{"a": b})
	m.AddNode("n", "a")
	m.Poll()
	b.mu.Lock()
	b.power = 149
	b.mu.Unlock()
	m.Poll()
	h, err := m.History("n")
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 2 || h[0].PowerWatts != 151 || h[1].PowerWatts != 149 {
		t.Errorf("history = %+v", h)
	}
	st := m.Nodes()[0]
	if !st.Reachable || st.Last.PowerWatts != 149 {
		t.Errorf("status = %+v", st)
	}
	// Unreachable node flagged.
	b.mu.Lock()
	b.fail = true
	b.mu.Unlock()
	m.Poll()
	if m.Nodes()[0].Reachable {
		t.Error("unreachable node still marked reachable")
	}
}

func TestHistoryLimit(t *testing.T) {
	b := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": b})
	m.HistoryLimit = 3
	m.AddNode("n", "a")
	for i := 0; i < 10; i++ {
		m.Poll()
	}
	h, _ := m.History("n")
	if len(h) != 3 {
		t.Errorf("history length = %d, want 3", len(h))
	}
}

func TestBackgroundPolling(t *testing.T) {
	b := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": b})
	m.AddNode("n", "a")
	m.StartPolling(5 * time.Millisecond)
	defer m.StopPolling()
	deadline := time.After(2 * time.Second)
	for {
		if h, _ := m.History("n"); len(h) >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("poller produced no samples")
		case <-time.After(5 * time.Millisecond):
		}
	}
	m.StopPolling()
	m.StopPolling() // idempotent
}

func TestWaterfillProportional(t *testing.T) {
	allocs, err := waterfill(300, []demand{
		{name: "a", want: 150, min: 100, max: 180},
		{name: "b", want: 150, min: 100, max: 180},
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs[0].CapWatts != 150 || allocs[1].CapWatts != 150 {
		t.Errorf("equal-demand split = %+v", allocs)
	}
}

func TestWaterfillRespectsDemandAndRedistributes(t *testing.T) {
	// a only wants 120; its slack goes to b.
	allocs, err := waterfill(300, []demand{
		{name: "a", want: 120, min: 100, max: 180},
		{name: "b", want: 200, min: 100, max: 180},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]float64 = map[string]float64{}
	for _, a := range allocs {
		got[a.Name] = a.CapWatts
	}
	if got["a"] < 119.9 || got["a"] > 120.1 {
		t.Errorf("a = %v, want ~120", got["a"])
	}
	if got["b"] < 179.9 { // saturates platform max
		t.Errorf("b = %v, want 180", got["b"])
	}
}

func TestWaterfillInfeasibleBudget(t *testing.T) {
	_, err := waterfill(150, []demand{
		{name: "a", want: 150, min: 100, max: 180},
		{name: "b", want: 150, min: 100, max: 180},
	})
	if err == nil {
		t.Error("infeasible budget accepted")
	}
}

func TestWaterfillEmptyGroup(t *testing.T) {
	if _, err := waterfill(100, nil); err == nil {
		t.Error("empty group accepted")
	}
}

// TestWaterfillInvariants: allocations never exceed the budget, always
// cover each node's minimum, and never exceed its maximum.
func TestWaterfillInvariants(t *testing.T) {
	f := func(wants []uint16, budgetRaw uint32) bool {
		if len(wants) == 0 {
			return true
		}
		if len(wants) > 16 {
			wants = wants[:16]
		}
		ds := make([]demand, len(wants))
		var minSum float64
		for i, w := range wants {
			ds[i] = demand{
				name: string(rune('a' + i)),
				want: 100 + float64(w%200),
				min:  100, max: 250,
			}
			minSum += 100
		}
		budget := minSum + float64(budgetRaw%100000)/100
		allocs, err := waterfill(budget, ds)
		if err != nil {
			return false
		}
		var total float64
		for i, a := range allocs {
			if a.CapWatts < ds[i].min-1e-6 || a.CapWatts > ds[i].max+1e-6 {
				return false
			}
			total += a.CapWatts
		}
		return total <= budget+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyBudgetPushesCaps(t *testing.T) {
	a, b := newFakeBMC(170), newFakeBMC(130)
	m := fleet(map[string]*fakeBMC{"a": a, "b": b})
	m.AddNode("a", "a")
	m.AddNode("b", "b")
	m.Poll()
	allocs, err := m.ApplyBudget(310, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 {
		t.Fatalf("allocs = %+v", allocs)
	}
	if !a.limit.Enabled || !b.limit.Enabled {
		t.Error("caps not pushed")
	}
	// The hungrier node (a at 170 W) gets the larger share.
	if a.limit.CapWatts <= b.limit.CapWatts {
		t.Errorf("allocation ignores demand: a=%v b=%v", a.limit.CapWatts, b.limit.CapWatts)
	}
	if a.limit.CapWatts+b.limit.CapWatts > 310+1e-6 {
		t.Errorf("budget exceeded: %v", a.limit.CapWatts+b.limit.CapWatts)
	}
}

func TestServerHandle(t *testing.T) {
	bmcs := map[string]*fakeBMC{"a": newFakeBMC(150)}
	m := fleet(bmcs)
	s := NewServer(m)

	if r := s.Handle(Request{Op: "add", Name: "n", Addr: "a"}); !r.OK {
		t.Fatalf("add: %+v", r)
	}
	if r := s.Handle(Request{Op: "poll"}); !r.OK || len(r.Nodes) != 1 {
		t.Fatalf("poll: %+v", r)
	}
	if r := s.Handle(Request{Op: "setcap", Name: "n", Cap: 140}); !r.OK {
		t.Fatalf("setcap: %+v", r)
	}
	if r := s.Handle(Request{Op: "setcap"}); r.OK {
		t.Error("setcap without name accepted")
	}
	if r := s.Handle(Request{Op: "nodes"}); !r.OK || r.Nodes[0].CapWatts != 140 {
		t.Fatalf("nodes: %+v", r)
	}
	if r := s.Handle(Request{Op: "budget", Budget: 170, Group: []string{"n"}}); !r.OK || len(r.Allocs) != 1 {
		t.Fatalf("budget: %+v", r)
	}
	if r := s.Handle(Request{Op: "history", Name: "n", Limit: 1}); !r.OK || len(r.History) != 1 {
		t.Fatalf("history: %+v", r)
	}
	if r := s.Handle(Request{Op: "remove", Name: "n"}); !r.OK {
		t.Fatalf("remove: %+v", r)
	}
	if r := s.Handle(Request{Op: "nonsense"}); r.OK {
		t.Error("unknown op accepted")
	}
}

func TestServerOverTCP(t *testing.T) {
	bmcs := map[string]*fakeBMC{"a": newFakeBMC(150)}
	m := fleet(bmcs)
	s := NewServer(m)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if r, err := Call(addr, Request{Op: "add", Name: "n", Addr: "a"}); err != nil || !r.OK {
		t.Fatalf("add over TCP: %+v, %v", r, err)
	}
	r, err := Call(addr, Request{Op: "nodes"})
	if err != nil || !r.OK || len(r.Nodes) != 1 {
		t.Fatalf("nodes over TCP: %+v, %v", r, err)
	}
}

func TestManagerClose(t *testing.T) {
	a, b := newFakeBMC(150), newFakeBMC(140)
	m := fleet(map[string]*fakeBMC{"a": a, "b": b})
	m.AddNode("a", "a")
	m.AddNode("b", "b")
	m.StartPolling(time.Hour)
	m.Close()
	if !a.closed || !b.closed {
		t.Error("Close left connections open")
	}
	if len(m.Nodes()) != 0 {
		t.Error("Close left nodes registered")
	}
}

func TestApplyBudgetUnknownNode(t *testing.T) {
	m := fleet(map[string]*fakeBMC{})
	if _, err := m.ApplyBudget(300, []string{"ghost"}); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestApplyBudgetPushFailure(t *testing.T) {
	a := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": a})
	m.AddNode("a", "a")
	m.Poll()
	a.fail = true
	if _, err := m.ApplyBudget(170, []string{"a"}); err == nil {
		t.Error("push failure not propagated")
	}
}

func TestAllocateBudgetNoHistoryUsesMax(t *testing.T) {
	// Without monitoring history, demand falls back to the platform
	// maximum.
	a := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": a})
	m.AddNode("a", "a")
	allocs, err := m.AllocateBudget(200, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if allocs[0].CapWatts < 170 {
		t.Errorf("no-history allocation = %.1f, want near platform max", allocs[0].CapWatts)
	}
}

func TestWaterfillInvalidRange(t *testing.T) {
	_, err := waterfill(500, []demand{{name: "x", want: 100, min: 200, max: 100}})
	if err == nil {
		t.Error("inverted cap range accepted")
	}
}

func TestHistoryUnknownNode(t *testing.T) {
	m := fleet(map[string]*fakeBMC{})
	if _, err := m.History("ghost"); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestServerHandleErrorOps(t *testing.T) {
	m := fleet(map[string]*fakeBMC{})
	s := NewServer(m)
	if r := s.Handle(Request{Op: "add", Name: "n", Addr: "nowhere"}); r.OK {
		t.Error("add of unreachable node succeeded")
	}
	if r := s.Handle(Request{Op: "remove", Name: "ghost"}); r.OK {
		t.Error("remove of unknown node succeeded")
	}
	if r := s.Handle(Request{Op: "budget", Budget: 10, Group: []string{"ghost"}}); r.OK {
		t.Error("budget over unknown node succeeded")
	}
	if r := s.Handle(Request{Op: "history", Name: "ghost"}); r.OK {
		t.Error("history of unknown node succeeded")
	}
}

func TestCallAgainstClosedServer(t *testing.T) {
	if _, err := Call("127.0.0.1:1", Request{Op: "nodes"}); err == nil {
		t.Error("Call to closed port succeeded")
	}
}

func TestDefaultDialerFailsCleanly(t *testing.T) {
	m := NewManager(nil) // uses DefaultDialer
	if err := m.AddNode("n", "127.0.0.1:1"); err == nil {
		t.Error("AddNode over DefaultDialer to closed port succeeded")
	}
}

func TestAutoBalanceTracksShiftingDemand(t *testing.T) {
	a, b := newFakeBMC(170), newFakeBMC(120)
	m := fleet(map[string]*fakeBMC{"a": a, "b": b})
	m.AddNode("a", "a")
	m.AddNode("b", "b")
	m.Poll()
	m.StartAutoBalance(310, []string{"a", "b"}, 3*time.Millisecond)
	defer m.Close()

	waitFor := func(cond func() bool, what string) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	read := func(f *fakeBMC) float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.limit.CapWatts
	}

	// Initially a is hungrier: it should receive the larger cap.
	waitFor(func() bool {
		ca, cb := read(a), read(b)
		return ca > 0 && cb > 0 && ca > cb
	}, "initial demand-weighted split")

	// Demand flips: b heats up, a cools down; the balancer must follow.
	a.mu.Lock()
	a.power = 115
	a.mu.Unlock()
	b.mu.Lock()
	b.power = 175
	b.mu.Unlock()
	waitFor(func() bool { return read(b) > read(a) }, "rebalance after demand flip")

	m.StopAutoBalance()
	m.StopAutoBalance() // idempotent
}

package nodeagent

import (
	"testing"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
	"nodecap/internal/machine"
	"nodecap/internal/simtime"
)

// tinyWork is a short busy loop so looped runs complete quickly.
type tinyWork struct{}

func (tinyWork) Name() string   { return "tiny" }
func (tinyWork) CodePages() int { return 8 }
func (tinyWork) Run(m *machine.Machine) {
	base := m.Alloc(1 << 16)
	for i := 0; i < 20000; i++ {
		m.Compute(20, 16)
		m.Load(base + uint64(i%1024)*64)
	}
}

func idleAgent(t *testing.T) *Agent {
	t.Helper()
	a := New(machine.Romley(), Options{})
	t.Cleanup(a.Stop)
	return a
}

func TestIdleAgentServesManagement(t *testing.T) {
	a := idleAgent(t)
	pr := a.PowerReading()
	if pr.CurrentWatts < 95 || pr.CurrentWatts > 110 {
		t.Errorf("idle power = %.1f W, want ~101", pr.CurrentWatts)
	}
	ps := a.PStateInfo()
	if ps.Count != 16 {
		t.Errorf("P-state count = %d", ps.Count)
	}
	caps := a.Capabilities()
	if caps.MinCapWatts <= 120 || caps.MinCapWatts >= 126 {
		t.Errorf("advertised floor = %.1f W", caps.MinCapWatts)
	}
	if di := a.DeviceInfo(); di.ManufacturerID != 343 {
		t.Errorf("device info = %+v", di)
	}
}

// TestTierAdvertisedInCapabilities: the configured priority tier rides
// out through the BMC capabilities, where DCM picks it up at
// registration. The default is the low (batch) tier.
func TestTierAdvertisedInCapabilities(t *testing.T) {
	if tier := idleAgent(t).Capabilities().Tier; tier != ipmi.TierLow {
		t.Errorf("default tier = %d, want low (%d)", tier, ipmi.TierLow)
	}
	a := New(machine.Romley(), Options{Tier: ipmi.TierHigh})
	t.Cleanup(a.Stop)
	if tier := a.Capabilities().Tier; tier != ipmi.TierHigh {
		t.Errorf("advertised tier = %d, want high (%d)", tier, ipmi.TierHigh)
	}
}

func TestSetAndGetPowerLimit(t *testing.T) {
	a := idleAgent(t)
	if err := a.SetPowerLimit(ipmi.PowerLimit{Enabled: true, CapWatts: 140}); err != nil {
		t.Fatal(err)
	}
	lim := a.PowerLimit()
	if !lim.Enabled || lim.CapWatts != 140 {
		t.Errorf("limit = %+v", lim)
	}
	a.SetPowerLimit(ipmi.PowerLimit{})
	if a.PowerLimit().Enabled {
		t.Error("disable did not apply")
	}
}

func TestBusyAgentRunsWorkloads(t *testing.T) {
	a := New(machine.Romley(), Options{
		Workload: func() machine.Workload { return tinyWork{} },
	})
	defer a.Stop()
	deadline := time.After(10 * time.Second)
	for {
		if _, n := a.LastRun(); n >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no workload runs completed")
		case <-time.After(time.Millisecond):
		}
	}
	r, _ := a.LastRun()
	if r.Workload != "tiny" || r.ExecTime <= 0 {
		t.Errorf("last run = %+v", r)
	}
}

// longWork is long enough (several ms of virtual time) for the BMC to
// converge within a single run.
type longWork struct{}

func (longWork) Name() string   { return "long" }
func (longWork) CodePages() int { return 8 }
func (longWork) Run(m *machine.Machine) {
	base := m.Alloc(1 << 16)
	for i := 0; i < 800000; i++ {
		m.Compute(20, 16)
		m.Load(base + uint64(i%1024)*64)
	}
}

func TestPolicyAppliesMidStream(t *testing.T) {
	a := New(machine.Romley(), Options{
		Workload: func() machine.Workload { return longWork{} },
	})
	defer a.Stop()
	if err := a.SetPowerLimit(ipmi.PowerLimit{Enabled: true, CapWatts: 130}); err != nil {
		t.Fatal(err)
	}
	// Eventually a run completes under the cap with a low frequency.
	deadline := time.After(10 * time.Second)
	for {
		r, n := a.LastRun()
		if n >= 3 && r.AvgFreqMHz < 1500 && r.CapWatts == 130 {
			return
		}
		select {
		case <-deadline:
			r, n := a.LastRun()
			t.Fatalf("cap never took effect: runs=%d freq=%.0f cap=%.0f", n, r.AvgFreqMHz, r.CapWatts)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestEndToEndDCMToAgent wires the full management stack: DCM manager
// -> IPMI client -> TCP -> IPMI server -> agent -> machine.
func TestEndToEndDCMToAgent(t *testing.T) {
	a := New(machine.Romley(), Options{})
	defer a.Stop()
	srv := ipmi.NewServer(a)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mgr := dcm.NewManager(nil)
	defer mgr.Close()
	if err := mgr.AddNode("sim0", addr); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetNodeCap("sim0", 145); err != nil {
		t.Fatal(err)
	}
	mgr.Poll()
	ns := mgr.Nodes()
	if len(ns) != 1 || !ns[0].Reachable || ns[0].CapWatts != 145 {
		t.Fatalf("node status = %+v", ns)
	}
	if ns[0].MinCapWatts <= 120 {
		t.Errorf("floor not propagated: %+v", ns[0])
	}
	lim := a.PowerLimit()
	if !lim.Enabled || lim.CapWatts != 145 {
		t.Errorf("agent limit = %+v", lim)
	}
}

func TestStopIdempotent(t *testing.T) {
	a := New(machine.Romley(), Options{})
	a.Stop()
	a.Stop()
	// Do after stop must not hang.
	done := make(chan struct{})
	go func() {
		a.Do(func(*machine.Machine) {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Do after Stop hangs")
	}
}

// TestIdleMeterStaysBounded: an idle node's meter used to gain a sample
// per 50 µs of simulated time for as long as the daemon lived. Ten
// thousand idle slices through the agent's idle step must leave it
// holding a few windows' worth, while every power reading along the
// way equals, to the bit, that of a node whose meter forgot nothing.
func TestIdleMeterStaysBounded(t *testing.T) {
	a := &Agent{opts: Options{IdleSlice: simtime.Millisecond}}
	trimmed, full := machine.New(machine.Romley()), machine.New(machine.Romley())
	for _, m := range []*machine.Machine{trimmed, full} {
		if err := m.SetPolicy(140); err != nil {
			t.Fatal(err)
		}
	}
	var longest int
	for slice := 0; slice < 10000; slice++ {
		a.idleSlice(trimmed)
		full.AdvanceIdle(a.opts.IdleSlice)
		longest = max(longest, trimmed.Meter().Len())
		if got, want := powerReading(trimmed), powerReading(full); got != want {
			t.Fatalf("slice %d: reading %+v from the trimmed meter, %+v from the full one", slice, got, want)
		}
	}
	perWindow := int(powerWindow / machine.Romley().MeterInterval)
	if limit := 1024 + 2*perWindow; longest > limit {
		t.Errorf("meter reached %d samples over 10 000 idle slices, want at most %d (%d a window)", longest, limit, perWindow)
	}
	if n := full.Meter().Len(); n < 100*perWindow {
		t.Fatalf("the untrimmed meter holds only %d samples: the test never filled a window", n)
	}
}

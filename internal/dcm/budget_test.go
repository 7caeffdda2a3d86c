package dcm

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nodecap/internal/ipmi"
)

// TestAllocateBudgetUsesInjectedClock: regression for the allocator
// consulting time.Now() directly. The manager's clock is frozen
// decades in the past, so every timestamp it records (LastOKAt) is
// ancient by the real clock's reckoning. If AllocateBudget judged
// staleness against real time, the freshly-failed node would look
// stale and be pinned to its platform minimum; against the injected
// clock, zero time has passed and its demand still counts.
func TestAllocateBudgetUsesInjectedClock(t *testing.T) {
	b := newFakeBMC(170)
	m := fleet(map[string]*fakeBMC{"a": b})
	defer m.Close()
	frozen := time.Unix(1000, 0)
	m.Clock = func() time.Time { return frozen }
	m.StaleAfter = 50 * time.Millisecond
	if err := m.AddNode("a", "a"); err != nil {
		t.Fatal(err)
	}
	m.Poll()
	b.mu.Lock()
	b.fail = true
	b.mu.Unlock()
	m.Poll() // node is now unreachable, but not stale in injected time

	allocs, err := m.AllocateBudget(200, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if allocs[0].CapWatts <= 123+1e-6 {
		t.Fatalf("grant pinned to the platform minimum (%.1f W): staleness was judged against the real clock, not the injected one", allocs[0].CapWatts)
	}
}

// TestAllocateBudgetAllStalePinnedToMinimums: advancing the injected
// clock past StaleAfter makes staleness deterministic — no wall
// sleeps. With every node stale, each is granted exactly its platform
// minimum, and the abundant leftover budget must NOT spill back into
// nodes that cannot be told about it.
func TestAllocateBudgetAllStalePinnedToMinimums(t *testing.T) {
	a, b := newFakeBMC(170), newFakeBMC(160)
	m := fleet(map[string]*fakeBMC{"a": a, "b": b})
	defer m.Close()
	var offsetNS int64 // advanced atomically; poll workers read the clock concurrently
	base := time.Unix(1000, 0)
	m.Clock = func() time.Time {
		return base.Add(time.Duration(atomic.LoadInt64(&offsetNS)))
	}
	m.StaleAfter = time.Minute
	m.AddNode("a", "a")
	m.AddNode("b", "b")
	m.Poll()
	for _, f := range []*fakeBMC{a, b} {
		f.mu.Lock()
		f.fail = true
		f.mu.Unlock()
	}
	m.Poll()

	atomic.StoreInt64(&offsetNS, int64(2*time.Minute))
	allocs, err := m.AllocateBudget(400, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range allocs {
		if al.CapWatts != 123 {
			t.Errorf("stale node %s granted %.1f W, want exactly the 123 W platform minimum", al.Name, al.CapWatts)
		}
	}
}

// TestWaterfillSpareBudgetOrderInvariant: regression for the
// spare-budget pass handing surplus out in caller argument order. Two
// identical nodes with budget for one full top-up: the surplus must go
// to the name-canonical first node regardless of how the caller
// ordered the demands.
func TestWaterfillSpareBudgetOrderInvariant(t *testing.T) {
	mk := func(names ...string) []demand {
		ds := make([]demand, len(names))
		for i, n := range names {
			ds[i] = demand{name: n, want: 100, min: 50, max: 200}
		}
		return ds
	}
	// Budget 350: minimums take 100, demand takes another 100, and the
	// spare 150 can raise only one node to its 200 W platform maximum.
	want, err := waterfill(350, mk("alpha", "beta"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := waterfill(350, mk("beta", "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("allocation depends on caller argument order:\n[alpha,beta] -> %+v\n[beta,alpha] -> %+v", want, got)
	}
	if want[0].Name != "alpha" || want[0].CapWatts != 200 || want[1].CapWatts != 150 {
		t.Errorf("spare budget not handed out in canonical name order: %+v", want)
	}
}

// TestWaterfillPermutationInvariant: the allocation is a pure function
// of the demand set — any permutation of a heterogeneous input
// (weighted, zero-want, and min==max nodes included) yields identical
// grants.
func TestWaterfillPermutationInvariant(t *testing.T) {
	base := []demand{
		{name: "a", want: 170, min: 120, max: 200},
		{name: "b", want: 95, min: 90, max: 180},
		{name: "c", want: 140, min: 100, max: 160, weight: 4},
		{name: "d", want: 0, min: 80, max: 150},
		{name: "e", want: 130, min: 110, max: 110}, // min==max: pinned
		{name: "f", want: 220, min: 100, max: 240},
	}
	want, err := waterfill(780, base)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		p := append([]demand(nil), base...)
		rnd.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		got, err := waterfill(780, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted input changed the allocation:\nwant %+v\ngot  %+v", trial, want, got)
		}
	}
}

// TestWaterfillEdgeCases: the allocator's boundary behaviours, pinned
// exactly.
func TestWaterfillEdgeCases(t *testing.T) {
	t.Run("budget exactly at minimum sum", func(t *testing.T) {
		allocs, err := waterfill(200, []demand{
			{name: "a", want: 170, min: 100, max: 200},
			{name: "b", want: 150, min: 100, max: 200},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, al := range allocs {
			if al.CapWatts != 100 {
				t.Errorf("%s granted %.1f W, want exactly the 100 W minimum", al.Name, al.CapWatts)
			}
		}
	})
	t.Run("min equals max pins the grant", func(t *testing.T) {
		allocs, err := waterfill(400, []demand{
			{name: "fixed", want: 170, min: 150, max: 150},
			{name: "free", want: 170, min: 100, max: 250},
		})
		if err != nil {
			t.Fatal(err)
		}
		grants := map[string]float64{}
		for _, al := range allocs {
			grants[al.Name] = al.CapWatts
		}
		if grants["fixed"] != 150 {
			t.Errorf("min==max node granted %.1f W, want exactly 150", grants["fixed"])
		}
		if grants["free"] <= 150 {
			t.Errorf("flexible node granted %.1f W; the surplus went nowhere", grants["free"])
		}
	})
	t.Run("zero-want node gets min while contested, max when spare", func(t *testing.T) {
		ds := []demand{
			{name: "z1", want: 0, min: 100, max: 150},
			{name: "z2", want: 120, min: 100, max: 150},
		}
		allocs, err := waterfill(220, ds) // contested: demand pass only
		if err != nil {
			t.Fatal(err)
		}
		if allocs[0].CapWatts != 100 || allocs[1].CapWatts != 120 {
			t.Errorf("contested grants = %+v, want z1 pinned to min", allocs)
		}
		allocs, err = waterfill(400, ds) // abundant: spare pass lifts both
		if err != nil {
			t.Fatal(err)
		}
		if allocs[0].CapWatts != 150 || allocs[1].CapWatts != 150 {
			t.Errorf("abundant grants = %+v, want both at platform max", allocs)
		}
	})
}

// TestWaterfillWeightBiasesContestedBudget: weights shape who wins
// contested watts demand×weight-proportionally, and stop mattering
// once everyone's demand is satisfied.
func TestWaterfillWeightBiasesContestedBudget(t *testing.T) {
	ds := []demand{
		{name: "batch", want: 100, min: 0, max: 200},
		{name: "serve", want: 100, min: 0, max: 200, weight: 4},
	}
	allocs, err := waterfill(100, ds)
	if err != nil {
		t.Fatal(err)
	}
	grants := map[string]float64{}
	for _, al := range allocs {
		grants[al.Name] = al.CapWatts
	}
	if grants["serve"] != 80 || grants["batch"] != 20 {
		t.Errorf("contested split = %+v, want 80/20 (demand×weight proportional)", grants)
	}
	// Abundant budget: both reach max; the weight changes nothing.
	allocs, err = waterfill(400, ds)
	if err != nil {
		t.Fatal(err)
	}
	if allocs[0].CapWatts != 200 || allocs[1].CapWatts != 200 {
		t.Errorf("abundant grants = %+v, want both at max regardless of weight", allocs)
	}
}

// TestAllocateBudgetTierBias: a high-tier node outbids an identical
// low-tier node for contested budget, end to end through the manager.
func TestAllocateBudgetTierBias(t *testing.T) {
	a, b := newFakeBMC(170), newFakeBMC(170)
	m := fleet(map[string]*fakeBMC{"a": a, "b": b})
	defer m.Close()
	m.AddNode("a", "a")
	m.AddNode("b", "b")
	if err := m.SetNodeTier("a", TierHigh); err != nil {
		t.Fatal(err)
	}
	m.Poll()

	allocs, err := m.AllocateBudget(300, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	grants := map[string]float64{}
	var sum float64
	for _, al := range allocs {
		grants[al.Name] = al.CapWatts
		sum += al.CapWatts
	}
	if grants["a"] <= grants["b"] {
		t.Errorf("high-tier node granted %.1f W, low-tier %.1f W; tier weight ignored", grants["a"], grants["b"])
	}
	if sum > 300+1e-6 {
		t.Errorf("budget exceeded: %.1f W", sum)
	}

	if err := m.SetNodeTier("ghost", TierHigh); err == nil {
		t.Error("SetNodeTier on unknown node accepted")
	}
	if err := m.SetNodeTier("a", "medium"); err == nil {
		t.Error("unknown tier accepted")
	}
	if _, err := ParseTier("medium"); err == nil {
		t.Error("ParseTier accepted an unknown tier")
	}
}

// TestAllocateBudgetWeightedOverrides: explicit weights override tier
// defaults, and non-positive weights are rejected.
func TestAllocateBudgetWeightedOverrides(t *testing.T) {
	a, b := newFakeBMC(170), newFakeBMC(170)
	m := fleet(map[string]*fakeBMC{"a": a, "b": b})
	defer m.Close()
	m.AddNode("a", "a")
	m.AddNode("b", "b")
	m.SetNodeTier("a", TierHigh)
	m.Poll()

	// b's explicit weight beats a's tier default of 4.
	allocs, err := m.AllocateBudgetWeighted(300, []string{"a", "b"}, map[string]float64{"a": 1, "b": 8})
	if err != nil {
		t.Fatal(err)
	}
	grants := map[string]float64{}
	for _, al := range allocs {
		grants[al.Name] = al.CapWatts
	}
	if grants["b"] <= grants["a"] {
		t.Errorf("explicit weight did not override the tier default: %+v", grants)
	}

	for _, w := range []float64{0, -1} {
		if _, err := m.AllocateBudgetWeighted(300, []string{"a", "b"}, map[string]float64{"a": w}); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
}

// TestNodeTierFromCapabilities: a platform that advertises the high
// tier in its BMC capabilities is classified high at registration; an
// operator preset recorded before registration overrides it.
func TestNodeTierFromCapabilities(t *testing.T) {
	hi, lo := newFakeBMC(150), newFakeBMC(150)
	hi.capTier = ipmi.TierHigh
	m := fleet(map[string]*fakeBMC{"hi": hi, "lo": lo})
	defer m.Close()
	// Preset demotes hi before it registers, overriding the platform.
	if err := m.PresetNodeTier("hi", TierLow); err != nil {
		t.Fatal(err)
	}
	m.AddNode("hi", "hi")
	m.AddNode("lo", "lo")
	tiers := map[string]Tier{}
	for _, n := range m.Nodes() {
		tiers[n.Name] = n.Tier
	}
	if tiers["hi"] != TierLow {
		t.Errorf("preset did not override the platform-advertised tier: %q", tiers["hi"])
	}
	if tiers["lo"] != TierLow {
		t.Errorf("default tier = %q, want low", tiers["lo"])
	}
	// Preset on an already-registered node applies immediately.
	if err := m.PresetNodeTier("lo", TierHigh); err != nil {
		t.Fatal(err)
	}
	for _, n := range m.Nodes() {
		if n.Name == "lo" && n.Tier != TierHigh {
			t.Errorf("live preset not applied: %q", n.Tier)
		}
	}
	if err := m.PresetNodeTier("x", "medium"); err == nil {
		t.Error("PresetNodeTier accepted an unknown tier")
	}
}

// TestNodeTierAdvertisedAuto: without presets, the platform's
// advertised tier sticks.
func TestNodeTierAdvertisedAuto(t *testing.T) {
	hi := newFakeBMC(150)
	hi.capTier = ipmi.TierHigh
	m := fleet(map[string]*fakeBMC{"hi": hi})
	defer m.Close()
	m.AddNode("hi", "hi")
	if ns := m.Nodes(); ns[0].Tier != TierHigh {
		t.Errorf("advertised tier not honoured: %q", ns[0].Tier)
	}
}

// TestStartAutoBalanceRearmReplacesBudget: regression for re-arms
// being silently dropped while a loop was running. An operator who
// resizes the fleet budget must see the caps converge to the new
// total.
func TestStartAutoBalanceRearmReplacesBudget(t *testing.T) {
	a, b := newFakeBMC(170), newFakeBMC(130)
	m := fleet(map[string]*fakeBMC{"a": a, "b": b})
	defer m.Close()
	m.AddNode("a", "a")
	m.AddNode("b", "b")
	m.Poll()

	capSum := func() float64 {
		var sum float64
		for _, f := range []*fakeBMC{a, b} {
			f.mu.Lock()
			if f.limit.Enabled {
				sum += f.limit.CapWatts
			}
			f.mu.Unlock()
		}
		return sum
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s (cap sum %.1f W)", what, capSum())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	m.StartAutoBalance(310, []string{"a", "b"}, 3*time.Millisecond)
	waitFor(func() bool {
		s := capSum()
		return s > 309 && s < 311
	}, "initial 310 W budget to be enforced")

	// Re-arm with a smaller budget while the first loop is running: the
	// new budget must take over (pre-fix, the re-arm was dropped and the
	// caps stayed at 310 W forever).
	m.StartAutoBalance(280, []string{"a", "b"}, 3*time.Millisecond)
	waitFor(func() bool {
		s := capSum()
		return s > 279 && s < 281
	}, "re-armed 280 W budget to take over")
	m.StopAutoBalance()
}

// TestServerHandleTierAndWeights: the control-plane settier op and
// per-request budget weights.
func TestServerHandleTierAndWeights(t *testing.T) {
	bmcs := map[string]*fakeBMC{"a": newFakeBMC(170), "b": newFakeBMC(170)}
	m := fleet(bmcs)
	defer m.Close()
	s := NewServer(m)
	for _, add := range []Request{{Op: "add", Name: "n", Addr: "a"}, {Op: "add", Name: "o", Addr: "b"}} {
		if r := s.Handle(add); !r.OK {
			t.Fatalf("add: %+v", r)
		}
	}
	if r := s.Handle(Request{Op: "poll"}); !r.OK {
		t.Fatalf("poll: %+v", r)
	}
	if r := s.Handle(Request{Op: "settier", Name: "n", Tier: "high"}); !r.OK {
		t.Fatalf("settier: %+v", r)
	}
	if r := s.Handle(Request{Op: "settier", Name: "n", Tier: "medium"}); r.OK {
		t.Error("settier accepted an unknown tier")
	}
	if r := s.Handle(Request{Op: "settier", Tier: "high"}); r.OK {
		t.Error("settier without a node name accepted")
	}
	r := s.Handle(Request{Op: "nodes"})
	if !r.OK || len(r.Nodes) != 2 {
		t.Fatalf("nodes: %+v", r)
	}
	for _, n := range r.Nodes {
		if n.Name == "n" && n.Tier != TierHigh {
			t.Errorf("settier not reflected in node status: %+v", n)
		}
	}

	// Per-request weights flip the contested split toward o, overriding
	// n's high tier.
	br := s.Handle(Request{Op: "budget", Budget: 300, Group: []string{"n", "o"}, Weights: map[string]float64{"n": 1, "o": 8}})
	if !br.OK || len(br.Allocs) != 2 {
		t.Fatalf("weighted budget: %+v", br)
	}
	grants := map[string]float64{}
	for _, al := range br.Allocs {
		grants[al.Name] = al.CapWatts
	}
	if grants["o"] <= grants["n"] {
		t.Errorf("request weights ignored by the budget op: %+v", grants)
	}
}

// TestBudgetGroupRejectsDuplicateNames: a group that names a node twice
// used to let it claim twice — at 450 W a outbid b and the grants
// summed past the budget — and to refuse 300 W as "below platform
// minimums" though the two nodes need only 246 W.
func TestBudgetGroupRejectsDuplicateNames(t *testing.T) {
	m := fleet(map[string]*fakeBMC{"a": newFakeBMC(170), "b": newFakeBMC(170)})
	defer m.Close()
	m.AddNode("a", "a")
	m.AddNode("b", "b")
	m.Poll()
	for _, budget := range []float64{300, 450} {
		allocs, err := m.ApplyBudget(budget, []string{"a", "a", "b"})
		if err == nil || !strings.Contains(err.Error(), `"a" named twice`) {
			t.Errorf("%.0f W over [a a b]: allocs %+v, err %v; want a duplicate-name refusal", budget, allocs, err)
		}
	}
	if n := m.DesiredCapSum(); n != 0 {
		t.Errorf("refused budget still pushed caps summing to %.2f W", n)
	}
}

// TestBudgetRejectsNonFiniteWatts: NaN and ±Inf are refused before any
// division, so no NaN grant reaches a cap push or the journal.
func TestBudgetRejectsNonFiniteWatts(t *testing.T) {
	m := fleet(map[string]*fakeBMC{"a": newFakeBMC(170)})
	defer m.Close()
	m.AddNode("a", "a")
	m.Poll()
	for _, budget := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if allocs, err := m.AllocateBudget(budget, []string{"a"}); err == nil {
			t.Errorf("budget %v accepted: %+v", budget, allocs)
		}
	}
}

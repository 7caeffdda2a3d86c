package dcm

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nodecap/internal/dcm/store"
	"nodecap/internal/ipmi"
)

// arrivals logs, across a fleet of BMC endpoints, every cap push in the
// order the endpoints received them.
type arrivals struct {
	mu   sync.Mutex
	got  []arrival
	hook func(node string, lim ipmi.PowerLimit) // runs on each arrival
}

type arrival struct {
	node  string
	watts float64
}

// waveCtl is a BMC endpoint that records each cap push it receives in
// log, when there is one. A hung endpoint never answers one; a mute one
// never answers a status read.
type waveCtl struct {
	bmcStub
	name string
	log  *arrivals
	hang chan struct{} // non-nil: SetPowerLimit blocks until closed; guarded by bmcStub.mu
	mute chan struct{} // non-nil: PowerReading blocks until closed; guarded by bmcStub.mu
}

func (c *waveCtl) PowerReading() ipmi.PowerReading {
	c.mu.Lock()
	mute := c.mute
	c.mu.Unlock()
	if mute != nil {
		<-mute
	}
	return c.bmcStub.PowerReading()
}

func (c *waveCtl) SetPowerLimit(lim ipmi.PowerLimit) error {
	c.mu.Lock()
	hang := c.hang
	c.mu.Unlock()
	if hang != nil {
		<-hang
	}
	if c.log == nil {
		return c.bmcStub.SetPowerLimit(lim)
	}
	c.log.mu.Lock()
	c.log.got = append(c.log.got, arrival{c.name, lim.CapWatts})
	hook := c.log.hook
	c.log.mu.Unlock()
	if hook != nil {
		hook(c.name, lim)
	}
	return c.bmcStub.SetPowerLimit(lim)
}

// waveFleet serves n waveCtl endpoints on loopback ipmi.Servers, nodes
// n000… in name order, logging to log, and registers them with a
// manager that reaches each over its own ipmi.Client with the given
// request timeout.
func waveFleet(t testing.TB, n int, timeout time.Duration, log *arrivals) (*Manager, []string, []*waveCtl) {
	t.Helper()
	m := NewManager(func(addr string) (BMC, error) {
		return ipmi.DialTimeout(addr, time.Second, timeout)
	})
	t.Cleanup(m.Close)
	names := make([]string, n)
	ctls := make([]*waveCtl, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%03d", i)
		ctls[i] = &waveCtl{bmcStub: bmcStub{power: 140}, name: names[i], log: log}
		srv := ipmi.NewServer(ctls[i])
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := m.AddNode(names[i], addr); err != nil {
			t.Fatal(err)
		}
	}
	return m, names, ctls
}

// TestWaveLowersReachServersBeforeRaises: a budget change that lowers
// some caps and raises others over real sockets delivers every lower
// to its BMC before the first raise is sent, though each phase's
// pushes are pipelined across nodes.
func TestWaveLowersReachServersBeforeRaises(t *testing.T) {
	const n = 2*pushChunk + 7
	log := &arrivals{}
	m, names, _ := waveFleet(t, n, 2*time.Second, log)
	for i, name := range names {
		capW := 130.0 // raised to 150 below
		if i%2 == 0 {
			capW = 170 // lowered to 150 below
		}
		if err := m.SetNodeCap(name, capW); err != nil {
			t.Fatal(err)
		}
	}
	log.mu.Lock()
	log.got = nil
	log.mu.Unlock()

	// No node has a sample, so demand is equal and every share is 150 W.
	allocs, err := m.ApplyBudget(150*n, names)
	if err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	got := log.got
	log.mu.Unlock()
	if len(got) != n {
		t.Fatalf("%d pushes reached the BMCs, want %d", len(got), n)
	}
	lowered := func(node string) bool { return node[len(node)-1]%2 == 0 }
	seenRaise := false
	for i, a := range got {
		if !lowered(a.node) {
			seenRaise = true
		} else if seenRaise {
			t.Fatalf("lower of %s reached its BMC (arrival %d) after a raise", a.node, i)
		}
	}
	for i, a := range allocs {
		if lowered(a.Name) != (i < n/2+1) {
			t.Fatalf("returned push order %v does not put the lowers first", allocs)
		}
	}
}

// TestWaveJournalsChunkBeforeSend: when any push of a chunk reaches its
// BMC, every intent of that chunk is already in the durable store.
func TestWaveJournalsChunkBeforeSend(t *testing.T) {
	const n = 2*pushChunk + 5
	log := &arrivals{}
	m, names, _ := waveFleet(t, n, 2*time.Second, log)
	if err := m.OpenStateDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	m.Store().SetSync(false)
	index := make(map[string]int, n)
	for i, name := range names {
		index[name] = i
	}
	var (
		mu   sync.Mutex
		bad  []string
		seen = map[int]bool{}
	)
	hook := func(node string, lim ipmi.PowerLimit) {
		// Every node is raised from no cap, so the push order is name
		// order and chunk c is names[c*pushChunk:(c+1)*pushChunk].
		c := index[node] / pushChunk
		mu.Lock()
		defer mu.Unlock()
		if seen[c] {
			return
		}
		seen[c] = true
		st, _ := m.StoreState()
		for j := c * pushChunk; j < min((c+1)*pushChunk, n); j++ {
			rec := st.Nodes[names[j]]
			if !rec.HaveCap || math.Abs(rec.CapWatts-lim.CapWatts) > 0.01 {
				bad = append(bad, fmt.Sprintf("%s pushed before %s's intent was journaled (%+v)", node, names[j], rec))
			}
		}
	}
	log.mu.Lock()
	log.hook = hook
	log.mu.Unlock()
	if _, err := m.ApplyBudget(150*n, names); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != (n+pushChunk-1)/pushChunk {
		t.Fatalf("saw pushes from %d chunks, want %d", len(seen), (n+pushChunk-1)/pushChunk)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestApplyBudgetJournalCutsConserve: a budget change whose lowers span
// two chunks journals only budget-conserving prefixes. The old caps sit
// in the snapshot and the change's intents in the journal, fsynced per
// chunk; cut at every byte, the journal recovers to enabled caps that
// sum to at most max(old budget, new budget), because every lower is
// journaled before any raise.
func TestApplyBudgetJournalCutsConserve(t *testing.T) {
	const n = pushChunk + 8
	bmcs := map[string]*fakeBMC{}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%03d", i)
		bmcs[names[i]] = newFakeBMC(150)
	}
	dir := t.TempDir()
	m := fleet(bmcs)
	if err := m.OpenStateDir(dir); err != nil {
		t.Fatal(err)
	}
	m.Store().SetSync(false)
	for i, name := range names {
		capW := 170.0 // lowered to 145 below: 66 lowers, two chunks
		if i%12 == 0 {
			capW = 130 // raised to 145 below
		}
		if err := m.AddNode(name, name); err != nil {
			t.Fatal(err)
		}
		if err := m.SetNodeCap(name, capW); err != nil {
			t.Fatal(err)
		}
	}
	oldBudget := m.DesiredCapSum()
	m.Close() // compacts: the snapshot holds the old caps

	m = fleet(bmcs)
	if err := m.OpenStateDir(dir); err != nil {
		t.Fatal(err)
	}
	m.Store().SetSync(true)
	m.Poll() // redials the restored nodes: every one draws 150 W, so every share is 145 W
	newBudget := 145.0 * n
	if _, err := m.ApplyBudget(newBudget, names); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	snapshot, err := os.ReadFile(store.SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(store.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(journal), "\n"); got != n {
		t.Fatalf("journal holds %d records, want the change's %d intents", got, n)
	}

	limit := max(oldBudget, newBudget)
	// recovered opens a copy of the state dir cut at byte cut and sums
	// its enabled caps. Recovery reads the snapshot, bumps the
	// incarnation file and truncates a torn journal: nothing that changes
	// what a later cut recovers, so each worker reuses one directory.
	recovered := func(dir string, cut int) (float64, error) {
		if err := os.WriteFile(store.JournalPath(dir), journal[:cut], 0o644); err != nil {
			return 0, err
		}
		st, err := store.Open(dir)
		if err != nil {
			return 0, fmt.Errorf("cut %d: %w", cut, err)
		}
		defer st.Crash()
		var sum float64
		for _, rec := range st.State().Nodes {
			if rec.HaveCap && rec.CapEnabled {
				sum += rec.CapWatts
			}
		}
		return sum, nil
	}
	// Every open syncs the incarnation file, so the cuts run on a few
	// workers to overlap the syncs.
	const workers = 4
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for w := 0; w < workers; w++ {
		dir := t.TempDir()
		if err := os.WriteFile(store.SnapshotPath(dir), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cut := w; cut <= len(journal); cut += workers {
				got, err := recovered(dir, cut)
				switch {
				case err != nil:
				case cut == 0 && math.Abs(got-oldBudget) > 1e-6:
					err = fmt.Errorf("the snapshot recovers %v W of caps, want the old %v W", got, oldBudget)
				case cut == len(journal) && math.Abs(got-newBudget) > 1e-6:
					err = fmt.Errorf("the whole journal recovers %v W of caps, want the new %v W", got, newBudget)
				case got > limit+1e-6:
					err = fmt.Errorf("cut at byte %d of %d recovers %v W of enabled caps, above max(old %v, new %v)", cut, len(journal), got, oldBudget, newBudget)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
}

// TestWaveHungNodesCostOneTimeout: k BMCs that accept a push and never
// ack it cost a budget change about one request timeout in total, not
// k — every push is on the wire before the first ack is awaited, so the
// deadlines run concurrently. The other nodes still get their caps.
func TestWaveHungNodesCostOneTimeout(t *testing.T) {
	const (
		n, k    = 8, 4
		timeout = 300 * time.Millisecond
	)
	m, names, ctls := waveFleet(t, n, timeout, &arrivals{})
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) }) // runs before the servers close
	for _, c := range ctls[:k] {
		c.mu.Lock()
		c.hang = hang
		c.mu.Unlock()
	}
	start := time.Now()
	_, err := m.ApplyBudget(150*n, names)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("pushes to hung BMCs reported no error")
	}
	if got := strings.Count(err.Error(), "\n") + 1; got != k {
		t.Errorf("%d push errors, want one per hung node (%d): %v", got, k, err)
	}
	if elapsed >= 2*timeout {
		t.Errorf("%d hung nodes cost the budget change %v, want about one %v timeout", k, elapsed, timeout)
	}
	for i, st := range m.Nodes() {
		if hung := i < k; hung == st.Reachable || (!hung && st.ReportedCapWatts != 150) {
			t.Errorf("node %d (hung=%v): %+v", i, hung, st)
		}
	}
}

// TestWaveRacesPollAndChurn: waves over real sockets run beside polls,
// single pushes and a node's removal and re-registration, and no call
// ever meets a push in flight on its connection: a wave holds the
// node's busy token from send to await.
func TestWaveRacesPollAndChurn(t *testing.T) {
	const n = 12
	m, names, _ := waveFleet(t, n, 2*time.Second, nil)
	addr0 := m.Nodes()[0].Addr
	var wg sync.WaitGroup
	check := func(err error) {
		if errors.Is(err, ipmi.ErrPushInFlight) {
			t.Error(err)
		}
	}
	loop := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f(i)
			}
		}()
	}
	loop(func(i int) {
		_, err := m.ApplyBudget(float64(130+20*(i&1))*n, names)
		check(err)
	})
	loop(func(int) { m.Poll() })
	loop(func(i int) { check(m.SetNodeCap(names[1], float64(140+i&1))) })
	loop(func(int) {
		m.RemoveNode(names[0])
		m.AddNode(names[0], addr0)
	})
	wg.Wait()
	for _, st := range m.Nodes() {
		if strings.Contains(st.LastError, ipmi.ErrPushInFlight.Error()) {
			t.Errorf("%s: %s", st.Name, st.LastError)
		}
	}
}

// TestWaveNonSplittingBMCMatchesSequential: over BMCs that cannot split
// a push, a budget change yields the statuses and joined errors of
// pushing each cap with SetNodeCap in push order, failures included.
func TestWaveNonSplittingBMCMatchesSequential(t *testing.T) {
	build := func() (*Manager, []string) {
		bmcs := map[string]*fakeBMC{}
		var names []string
		for i := 0; i < 7; i++ {
			name := fmt.Sprintf("f%d", i)
			bmcs[name] = newFakeBMC(130 + 5*float64(i))
			names = append(names, name)
		}
		m := fleet(bmcs)
		epoch := time.Unix(1_700_000_000, 0)
		m.Clock = func() time.Time { return epoch }
		for _, name := range names {
			if err := m.AddNode(name, name); err != nil {
				t.Fatal(err)
			}
		}
		m.Poll()
		for i, name := range names[:4] {
			if err := m.SetNodeCap(name, 150+float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		bmcs["f1"].fail = true
		bmcs["f4"].fail = true
		bmcs["f5"].setErr = ipmi.ErrStaleEpoch
		return m, names
	}

	waved, names := build()
	defer waved.Close()
	allocs, werr := waved.ApplyBudget(1000, names)

	seq, _ := build()
	defer seq.Close()
	want, err := seq.AllocateBudget(1000, names)
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	for _, a := range seq.PushOrder(want) {
		if err := seq.SetNodeCap(a.Name, a.CapWatts); err != nil {
			errs = append(errs, err)
		}
	}
	serr := errors.Join(errs...)

	if werr == nil || serr == nil || werr.Error() != serr.Error() {
		t.Errorf("joined errors differ:\nwave:       %v\nsequential: %v", werr, serr)
	}
	if !reflect.DeepEqual(allocs, seq.PushOrder(want)) {
		t.Errorf("push order differs:\nwave:       %v\nsequential: %v", allocs, seq.PushOrder(want))
	}
	if got, want := waved.Nodes(), seq.Nodes(); !reflect.DeepEqual(got, want) {
		t.Errorf("statuses differ:\nwave:       %+v\nsequential: %+v", got, want)
	}
}

// TestSetNodeCapRefusesCapAboveWire: an enabled cap above what the
// wire's centiwatt field carries is refused before desired state
// changes, so it never reaches the journal or poisons every later push
// and reconcile with a dropped connection.
func TestSetNodeCapRefusesCapAboveWire(t *testing.T) {
	f := newFakeBMC(150)
	m := fleet(map[string]*fakeBMC{"a": f})
	defer m.Close()
	if err := m.AddNode("a", "a"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetNodeCap("a", 140); err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{5e7, ipmi.MaxWireWatts + 0.01} {
		if err := m.SetNodeCap("a", w); err == nil {
			t.Errorf("cap %v W accepted", w)
		}
	}
	st := m.Nodes()[0]
	if st.CapWatts != 140 || !st.CapEnabled || st.ReportedCapWatts != 140 || !st.Reachable {
		t.Errorf("refused cap changed the node: %+v", st)
	}
	if f.limit.CapWatts != 140 {
		t.Errorf("BMC holds %v W, want 140", f.limit.CapWatts)
	}
}

// BenchmarkApplyBudgetWire times budget changes over 256 loopback
// ipmi.Servers, each node on its own connection, alternating every cap
// down and up; us/push is the wall time of a change per node.
func BenchmarkApplyBudgetWire(b *testing.B) {
	const nodes = 256
	m, names, _ := waveFleet(b, nodes, ipmi.DefaultRequestTimeout, nil)
	if err := m.OpenStateDir(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	m.Store().SetSync(false)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		per := 170.0
		if i&1 != 0 {
			per = 130
		}
		if _, err := m.ApplyBudget(per*nodes, names); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N*nodes), "us/push")
}

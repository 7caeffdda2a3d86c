package dcm

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"nodecap/internal/ipmi"
)

// sweepBMC logs its address on the first exchange of every poll.
type sweepBMC struct {
	*fakeBMC
	addr string
	log  *sweepLog
}

type sweepLog struct {
	mu    sync.Mutex
	addrs []string
}

func (b *sweepBMC) GetPowerReading() (ipmi.PowerReading, error) {
	b.log.mu.Lock()
	b.log.addrs = append(b.log.addrs, b.addr)
	b.log.mu.Unlock()
	return b.fakeBMC.GetPowerReading()
}

func sweepManager(log *sweepLog) *Manager {
	return NewManager(func(addr string) (BMC, error) {
		return &sweepBMC{fakeBMC: newFakeBMC(150), addr: addr, log: log}, nil
	})
}

// TestPollSweepsInNameOrder: the name-ordered slice Poll keeps between
// sweeps is rebuilt after every change to the node set — AddNode,
// RemoveNode, a state-dir restore, shutdown — so a sequential sweep
// (and Nodes) always runs in sorted-name order over exactly the
// registered nodes.
func TestPollSweepsInNameOrder(t *testing.T) {
	log := &sweepLog{}
	m := sweepManager(log)
	dir := t.TempDir()
	if err := m.OpenStateDir(dir); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	check := func(when string) {
		t.Helper()
		names := make([]string, 0, len(want))
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(names)
		log.addrs = log.addrs[:0]
		m.Poll()
		if !slices.Equal(log.addrs, names) {
			t.Fatalf("%s: swept %v, want %v", when, log.addrs, names)
		}
		var listed []string
		for _, st := range m.Nodes() {
			listed = append(listed, st.Name)
		}
		if !slices.Equal(listed, names) {
			t.Fatalf("%s: Nodes() lists %v, want %v", when, listed, names)
		}
	}
	add := func(name string) {
		t.Helper()
		if err := m.AddNode(name, name); err != nil { // addr = name, so the log reads as names
			t.Fatal(err)
		}
		want[name] = true
	}
	remove := func(name string) {
		t.Helper()
		if err := m.RemoveNode(name); err != nil {
			t.Fatal(err)
		}
		delete(want, name)
	}

	check("empty")
	for _, name := range []string{"n5", "n1", "n9", "n3"} {
		add(name)
	}
	check("after adds")
	check("unchanged set, cached order")
	remove("n1")
	check("after removing the first")
	add("n0")
	add("n7")
	remove("n9")
	check("after interleaved add/remove")

	// A restart restores the set from the state dir into a new manager.
	m.Close()
	m = sweepManager(log)
	add("n4")
	m.Poll() // caches [n4] before the restore grows the set
	if err := m.OpenStateDir(dir); err != nil {
		t.Fatal(err)
	}
	check("after restore")
	add("n2")
	check("restore then add")
	m.Close()
	want = map[string]bool{}
	check("after shutdown")
}

// TestPollRacesRemoveNode: a sweep reads the cached order after
// releasing the manager lock while RemoveNode and AddNode drop it; run
// under -race.
func TestPollRacesRemoveNode(t *testing.T) {
	m := sweepManager(&sweepLog{})
	defer m.Close()
	const nodes = 64
	for i := 0; i < nodes; i++ {
		if err := m.AddNode(fmt.Sprintf("n%02d", i), "a"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m.Poll()
			m.Nodes()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < nodes; i++ {
			name := fmt.Sprintf("n%02d", i)
			if err := m.RemoveNode(name); err != nil {
				t.Error(err)
			}
			if i%2 == 0 {
				if err := m.AddNode(name, "a"); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()
	if got := len(m.Nodes()); got != nodes/2 {
		t.Errorf("%d nodes left, want %d", got, nodes/2)
	}
}

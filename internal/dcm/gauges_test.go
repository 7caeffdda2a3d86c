package dcm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nodecap/internal/telemetry"
)

// TestFleetGaugesMatchRecount drives a random sequence of add, remove,
// fail and recover through the manager and checks the incrementally
// kept reachable count against a recount of the node map after every
// step, and the three fleet gauges against it after every step that
// refreshes them.
func TestFleetGaugesMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	bmcs := map[string]*fakeBMC{}
	m := fleet(bmcs)
	defer m.Close()
	reg := telemetry.NewRegistry()
	m.SetTelemetry(reg, nil)
	m.HistoryLimit = 4
	// Every step is an hour after the last, so no backoff gate or
	// breaker cool-down keeps a recovered node from being redialled.
	now := time.Unix(0, 0)
	m.Clock = func() time.Time { return now }

	var names []string
	var sawDown bool
	for step := 0; step < 400; step++ {
		now = now.Add(time.Hour)
		refreshed := true
		switch op := rng.Intn(7); {
		case op <= 1 || len(names) == 0:
			name := fmt.Sprintf("n%03d", step)
			bmcs[name] = newFakeBMC(140)
			if err := m.AddNode(name, name); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		case op == 2:
			i := rng.Intn(len(names))
			if err := m.RemoveNode(names[i]); err != nil {
				t.Fatal(err)
			}
			names = append(names[:i], names[i+1:]...)
		case op == 3: // a failed cap push marks the node without a poll
			b := bmcs[names[rng.Intn(len(names))]]
			b.mu.Lock()
			b.fail = true
			b.mu.Unlock()
			for _, name := range names {
				_ = m.SetNodeCap(name, 150) // the failing nodes' errors are the point
			}
			refreshed = false
		case op == 4:
			for _, name := range names {
				b := bmcs[name]
				b.mu.Lock()
				b.fail = rng.Intn(3) == 0
				b.mu.Unlock()
			}
			m.Poll()
		default:
			m.Poll()
		}

		var up, samples int
		m.mu.Lock()
		for _, n := range m.nodes {
			if n.status.Reachable {
				up++
			}
			samples += n.history.n
		}
		total, kept := len(m.nodes), m.reachable
		m.mu.Unlock()
		sawDown = sawDown || up < total
		if kept != up {
			t.Fatalf("step %d: reachable count %d, recount %d of %d", step, kept, up, total)
		}
		if !refreshed {
			continue
		}
		for gauge, want := range map[string]int{"dcm_nodes": total, "dcm_nodes_reachable": up, "dcm_history_samples": samples} {
			if got := reg.Gauge(gauge).Value(); got != float64(want) {
				t.Fatalf("step %d: %s = %v, recount %d", step, gauge, got, want)
			}
		}
	}
	if len(names) < 20 || !sawDown {
		t.Fatalf("%d nodes left registered, saw one unreachable: %v — the sequence did not exercise a fleet", len(names), sawDown)
	}
}

// TestAddNodeCostIsLinear: registration used to end in a walk over the
// whole node map, so 4x the nodes cost 16x the time (0.21 s of the
// 0.29 s a 10 000-node Tree.AddNodes took). Each size takes the best of
// three to shed host noise; linear is 4x, the bound leaves a factor two.
func TestAddNodeCostIsLinear(t *testing.T) {
	register := func(n int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			b := newFakeBMC(140)
			m := NewManager(func(string) (BMC, error) { return b, nil })
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("n%06d", i)
			}
			t0 := time.Now()
			for _, name := range names {
				if err := m.AddNode(name, name); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(t0); d < best {
				best = d
			}
			m.Close()
		}
		return best
	}
	small, large := register(4000), register(16000)
	if ratio := float64(large) / float64(small); ratio > 8 {
		t.Errorf("registering 16 000 nodes took %v, %.1fx the %v of 4 000: want about 4x, well under 16x", large, ratio, small)
	}
}

package serving

import (
	"reflect"
	"testing"

	"nodecap/internal/machine"
	"nodecap/internal/multicore"
	"nodecap/internal/simtime"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.RequestsPerCore = 300
	cfg.WarmupRequests = 50
	return cfg
}

// node is the paper's platform widened to cores cores.
func node(cores int) *machine.Machine {
	cfg := machine.Romley()
	cfg.Cores = cores
	return machine.New(cfg)
}

func runOnce(t *testing.T, cfg Config) (*Workload, multicore.Result) {
	t.Helper()
	w := New(cfg)
	return w, multicore.Run(node(2), w)
}

// TestServingDeterministic runs the same seed twice and expects
// bit-identical latencies and batch throughput.
func TestServingDeterministic(t *testing.T) {
	w1, _ := runOnce(t, smallConfig())
	w2, _ := runOnce(t, smallConfig())
	if !reflect.DeepEqual(w1.Latencies(), w2.Latencies()) {
		t.Fatal("latency records differ across identical runs")
	}
	if w1.BatchOps() != w2.BatchOps() {
		t.Fatalf("batch throughput differs: %d vs %d", w1.BatchOps(), w2.BatchOps())
	}
}

// TestServingSeedMatters checks a different seed shifts the arrival
// process (different latencies).
func TestServingSeedMatters(t *testing.T) {
	cfg2 := smallConfig()
	cfg2.Seed = 99
	w1, _ := runOnce(t, smallConfig())
	w2, _ := runOnce(t, cfg2)
	if reflect.DeepEqual(w1.Latencies(), w2.Latencies()) {
		t.Fatal("different seeds produced identical latency records")
	}
}

// TestWarmupExcluded checks exactly RequestsPerCore-WarmupRequests
// latencies are recorded per serving core, and that every request was
// still processed (batch work ran the whole span).
func TestWarmupExcluded(t *testing.T) {
	cfg := smallConfig()
	w, _ := runOnce(t, cfg)
	want := cfg.RequestsPerCore - cfg.WarmupRequests
	if got := len(w.Latencies()); got != want {
		t.Fatalf("recorded %d latencies, want %d (warmup excluded)", got, want)
	}
	if w.BatchOps() == 0 {
		t.Fatal("batch shard did no work")
	}
}

// TestPercentiles checks the percentile math on the recorded data.
func TestPercentiles(t *testing.T) {
	w, _ := runOnce(t, smallConfig())
	if w.Percentile(0.5) > w.P99() {
		t.Fatalf("p50 %v > p99 %v", w.Percentile(0.5), w.P99())
	}
	if w.P99() > w.Percentile(1.0) {
		t.Fatalf("p99 %v > max %v", w.P99(), w.Percentile(1.0))
	}
	if w.P99() <= 0 {
		t.Fatalf("p99 %v not positive", w.P99())
	}
	empty := New(smallConfig())
	if empty.P99() != 0 {
		t.Fatal("P99 before a run should be zero")
	}
}

// TestServingLatencyRisesWhenSlowed pins the workload's core property:
// the open-loop service run on a machine pinned to a slow frequency
// must record a much worse tail than at full speed.
func TestServingLatencyRisesWhenSlowed(t *testing.T) {
	fast, _ := runOnce(t, smallConfig())

	m := node(2)
	// An aggressive cap drags the whole package down (fair share).
	_ = m.SetPolicy(140)
	slow := New(smallConfig())
	multicore.Run(m, slow)

	if slow.P99() < 4*fast.P99() {
		t.Fatalf("slowed p99 %v not clearly above full-speed p99 %v", slow.P99(), fast.P99())
	}
}

// TestConfigValidation rejects nonsense.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{ServingCores: 1, RequestsPerCore: 10, ArrivalRatePerSec: 0, RequestOps: 1},
		{ServingCores: 0, RequestsPerCore: 10, ArrivalRatePerSec: 1, RequestOps: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
	// A socket with no room for batch shards must panic at sharding.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("single-core socket with one serving core did not panic")
			}
		}()
		multicore.Run(node(1), New(smallConfig()))
	}()
}

// TestArrivalsAreOpenLoop checks the recorded latency can exceed the
// inter-arrival gap — the queue is real, not regenerated per request.
func TestArrivalsAreOpenLoop(t *testing.T) {
	cfg := smallConfig()
	w, _ := runOnce(t, cfg)
	gap := simtime.FromSeconds(1 / cfg.ArrivalRatePerSec)
	if w.Percentile(1.0) <= gap {
		t.Skipf("max latency %v under one arrival gap %v; queue never formed", w.Percentile(1.0), gap)
	}
}

package dcm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"nodecap/internal/telemetry"
)

func TestPackedSampleIs32PointerFreeBytes(t *testing.T) {
	if size := unsafe.Sizeof(packedSample{}); size != 32 {
		t.Errorf("packedSample is %d bytes, want 32", size)
	}
	typ := reflect.TypeOf(packedSample{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Int16, reflect.Int32, reflect.Int64, reflect.Float64:
		default:
			t.Errorf("field %s is a %s: a history chunk must stay pointer-free", typ.Field(i).Name, k)
		}
	}
}

// randomSample draws a sample over everything the wire can carry, with
// a stamp that has nanoseconds to lose.
func randomSample(rng *rand.Rand) Sample {
	return Sample{
		At:           time.Unix(1_700_000_000+rng.Int63n(1e6), rng.Int63n(1e9)),
		PowerWatts:   float64(rng.Uint32()) / 100,
		AverageWatts: math.Float64frombits(rng.Uint64()>>2 | 1<<62), // any finite bit pattern
		FreqMHz:      rng.Intn(1 << 16),
		PState:       rng.Intn(1 << 8),
		GatingLevel:  rng.Intn(1 << 8),
	}
}

// TestHistoryMatchesSliceModel drives the ring and the slice it
// replaced — append, then keep the last limit — with the same samples
// and a limit that changes mid-run, and requires the same history
// after every push, every field bit for bit, the stamp to the
// nanosecond and in time.Now's location.
func TestHistoryMatchesSliceModel(t *testing.T) {
	for _, limit := range []int{1, 3, historyChunk - 1, historyChunk, historyChunk + 1, 4096} {
		limit := limit
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(limit)))
			// Run at limit, lower it, raise it past where it began, switch
			// history off both ways, return.
			phases := []int{limit, max(1, limit/2), 2*limit + 1, 0, -1, limit}
			pushes := 2*limit + 3*historyChunk
			if limit == 4096 {
				pushes = limit + 2*historyChunk
			}
			var (
				h     history
				model []Sample
				total int
			)
			for _, lim := range phases {
				for i := 0; i < pushes; i++ {
					s := randomSample(rng)
					total += h.push(s, lim)
					model = append(model, s)
					model = model[len(model)-min(len(model), max(lim, 0)):]
					if h.n != len(model) || total != h.n {
						t.Fatalf("limit %d push %d: ring holds %d (deltas sum to %d), model %d", lim, i, h.n, total, len(model))
					}
					// The full comparison is O(n): do it where the ring's
					// shape changes, and now and then.
					if i < 2 || i%historyChunk <= 1 || i == pushes-1 || limit < 64 {
						compareHistory(t, h.samples(), model)
					}
					if slots := len(h.chunks) * historyChunk; slots > h.n+2*historyChunk {
						t.Fatalf("limit %d push %d: %d slots held for %d samples", lim, i, slots, h.n)
					}
				}
			}
		})
	}
}

func compareHistory(t *testing.T, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("history has %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.At.UnixNano() != w.At.UnixNano() || g.At.Location() != time.Now().Location() {
			t.Fatalf("sample %d stamped %v (%v), want %v", i, g.At, g.At.Location(), w.At)
		}
		if math.Float64bits(g.PowerWatts) != math.Float64bits(w.PowerWatts) ||
			math.Float64bits(g.AverageWatts) != math.Float64bits(w.AverageWatts) ||
			g.FreqMHz != w.FreqMHz || g.PState != w.PState || g.GatingLevel != w.GatingLevel {
			t.Fatalf("sample %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestHistoryLimitZeroNegativeAndLowered is the HistoryLimit < 0 panic
// (the slice was cut past its end on the first good poll): a limit of
// zero or less keeps no history while Last is still kept, and a limit
// lowered between polls trims on the next sample.
func TestHistoryLimitZeroNegativeAndLowered(t *testing.T) {
	for _, limit := range []int{0, -1, -4096} {
		m := fleet(map[string]*fakeBMC{"a": newFakeBMC(150)})
		m.HistoryLimit = limit
		m.AddNode("n", "a")
		m.Poll()
		m.Poll()
		if h, err := m.History("n"); err != nil || h == nil || len(h) != 0 {
			t.Errorf("HistoryLimit %d: History = %v, %v; want empty", limit, h, err)
		}
		if last := m.Nodes()[0].Last; last.PowerWatts != 150 || last.At.IsZero() {
			t.Errorf("HistoryLimit %d: Last = %+v, want the polled sample", limit, last)
		}
	}

	b := newFakeBMC(100)
	m := fleet(map[string]*fakeBMC{"a": b})
	m.AddNode("n", "a")
	for i := 0; i < 40; i++ {
		b.power = 100 + float64(i)
		m.Poll()
	}
	m.HistoryLimit = 5
	if h, _ := m.History("n"); len(h) != 40 {
		t.Fatalf("history trimmed to %d before the next poll", len(h))
	}
	b.power = 200
	m.Poll()
	h, _ := m.History("n")
	if len(h) != 5 || h[0].PowerWatts != 136 || h[4].PowerWatts != 200 {
		t.Errorf("after lowering the limit to 5: %d samples, %v..%v; want 136..200", len(h), h[0].PowerWatts, h[len(h)-1].PowerWatts)
	}
	m.HistoryLimit = 0
	m.Poll()
	if h, _ := m.History("n"); len(h) != 0 {
		t.Errorf("after lowering the limit to 0: %d samples", len(h))
	}
}

// TestPollAllocatesNothingOnceHistoryIsFull holds the manager's half of
// the tentpole over fake BMCs. Per node (pollNode is Poll's body for
// one node): while a ring grows it takes one chunk per historyChunk
// polls and nothing else, and once it has reached HistoryLimit nothing
// at all. Per sweep: only the closure Poll hands to the worker pool,
// however many nodes there are.
func TestPollAllocatesNothingOnceHistoryIsFull(t *testing.T) {
	const nodes = 8
	bmcs := map[string]*fakeBMC{}
	for i := 0; i < nodes; i++ {
		bmcs[fmt.Sprint("a", i)] = newFakeBMC(150)
	}
	m := fleet(bmcs)
	m.PollConcurrency = 1 // the sweep stays on this goroutine
	m.SetTelemetry(telemetry.NewRegistry(), telemetry.NewTrace(64))
	for i := 0; i < nodes; i++ {
		if err := m.AddNode(fmt.Sprint("n", i), fmt.Sprint("a", i)); err != nil {
			t.Fatal(err)
		}
	}
	n0, err := m.node("n0")
	if err != nil {
		t.Fatal(err)
	}
	chunkOfPolls := func() {
		for i := 0; i < historyChunk; i++ {
			m.pollNode(n0, 0)
		}
	}
	if got := testing.AllocsPerRun(10, chunkOfPolls); got != 1 {
		t.Errorf("%d polls of a growing ring allocated %v times, want the one chunk", historyChunk, got)
	}

	m.HistoryLimit = 3 * historyChunk
	for i := 0; i < 4*historyChunk; i++ {
		m.Poll()
	}
	if h, _ := m.History("n0"); len(h) != m.HistoryLimit {
		t.Fatalf("ring holds %d samples, want it full at %d", len(h), m.HistoryLimit)
	}
	if got := testing.AllocsPerRun(10, chunkOfPolls); got != 0 {
		t.Errorf("%d polls of a full ring allocated %v times, want 0", historyChunk, got)
	}
	if got := testing.AllocsPerRun(4*historyChunk, m.Poll); got > 1 {
		t.Errorf("a sweep of %d nodes with full rings allocated %v times, want at most the pool's closure", nodes, got)
	}
}

// TestHistorySamplesGauge follows dcm_history_samples through growth,
// the limit, a lowered limit, a removed node and Close.
func TestHistorySamplesGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := fleet(map[string]*fakeBMC{"a": newFakeBMC(150), "b": newFakeBMC(160)})
	m.SetTelemetry(reg, nil)
	m.HistoryLimit = 4
	m.AddNode("na", "a")
	m.AddNode("nb", "b")
	gauge := reg.Gauge("dcm_history_samples")
	expect := func(when string, want float64) {
		t.Helper()
		if got := gauge.Value(); got != want {
			t.Errorf("%s: dcm_history_samples = %v, want %v", when, got, want)
		}
	}
	expect("before any poll", 0)
	m.Poll()
	m.Poll()
	expect("two polls of two nodes", 4)
	for i := 0; i < 5; i++ {
		m.Poll()
	}
	expect("at the limit", 8)
	m.HistoryLimit = 1
	m.Poll()
	expect("limit lowered to 1", 2)
	if err := m.RemoveNode("nb"); err != nil {
		t.Fatal(err)
	}
	expect("one node removed", 1)
	m.Close()
	m.updateFleetGauges()
	expect("closed", 0)
}

// TestDemandSummaryMatchesNodes pins DemandSummary to the sums the
// cascade used to take over a Nodes() copy, in the same order.
func TestDemandSummaryMatchesNodes(t *testing.T) {
	bmcs := map[string]*fakeBMC{}
	for i, p := range []float64{0, 90.5, 151.25, 171.125, 200} {
		b := newFakeBMC(p)
		b.minCap, b.maxCap = 100+float64(i)/3, 170+float64(i)/7
		bmcs[fmt.Sprint("a", i)] = b
	}
	m := fleet(bmcs)
	for i := range bmcs {
		m.AddNode("n"+i, i)
	}
	check := func(when string) {
		t.Helper()
		var wantMin, wantWant, wantMax float64
		for _, n := range m.Nodes() {
			wantMin += n.MinCapWatts
			wantMax += n.MaxCapWatts
			w := n.Last.AverageWatts
			if w <= 0 {
				w = n.MaxCapWatts
			}
			w *= 1.05
			if w < n.MinCapWatts {
				w = n.MinCapWatts
			}
			wantWant += w
		}
		if gotMin, gotWant, gotMax := m.DemandSummary(); gotMin != wantMin || gotWant != wantWant || gotMax != wantMax {
			t.Errorf("%s: DemandSummary = %v %v %v, want %v %v %v", when, gotMin, gotWant, gotMax, wantMin, wantWant, wantMax)
		}
	}
	check("unsampled")
	m.Poll()
	check("sampled")
}

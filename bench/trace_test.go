package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nodecap/internal/ipmi"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 35, End: 38, Parent: 0},  // inside both
		{Name: "d", Start: 80, End: 120, Parent: 0}, // runs past the parent
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [80,100): 70 of 100.
	if self[0] != 30 {
		t.Errorf("parent self time = %d, want 30", self[0])
	}
	if self[1] != 22 {
		t.Errorf("a's self time = %d, want 22", self[1])
	}
	for _, i := range []int{2, 3, 5} {
		if self[i] != spans[i].dur() {
			t.Errorf("%s has no children but self %d != duration %d", spans[i].Name, self[i], spans[i].dur())
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	i := tr.push(spanPoll)
	tr.pop(i)
	tr.end(tr.begin(spanExchange))
	tr.endOp(tr.startOp(0))
	if i != -1 {
		t.Errorf("nil tracer handed out span %d", i)
	}
}

func TestSpansNestUnderTheOpenDriverSpan(t *testing.T) {
	p, err := newPlant(1, false, 1, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	tr := p.tr
	bmc, err := p.dial(p.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer bmc.Close()

	// Off: nothing recorded, nothing counted.
	if _, err := bmc.GetHealth(); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 0 || tr.tx.Load() != 0 {
		t.Fatalf("recorded %d spans and %d bytes while off", len(tr.spans), tr.tx.Load())
	}

	root := tr.startOp(7)
	poll := tr.push(spanPoll)
	if _, err := bmc.GetPowerReading(); err != nil {
		t.Fatal(err)
	}
	tr.pop(poll)
	reb := tr.push(spanRebalance)
	if err := bmc.SetPowerLimit(ipmi.PowerLimit{Enabled: true, CapWatts: 140}); err != nil {
		t.Fatal(err)
	}
	tr.pop(reb)
	tr.endOp(root)

	want := []struct {
		name   string
		parent int32
	}{{spanOp, -1}, {spanPoll, 0}, {spanExchange, 1}, {spanRebalance, 0}, {spanExchange, 3}}
	if len(tr.spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d: %+v", len(tr.spans), len(want), tr.spans)
	}
	for i, w := range want {
		s := tr.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Op != 7 || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s under %d in op 7", i, s, w.name, w.parent)
		}
	}
	if tr.tx.Load() == 0 || tr.rx.Load() == 0 {
		t.Errorf("counting conn saw %d bytes out, %d in", tr.tx.Load(), tr.rx.Load())
	}
	if tr.on.Load() {
		t.Error("tracer still on after endOp")
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(b, &back); err != nil || len(back) != len(want) {
		t.Fatalf("span file holds %d spans (%v)", len(back), err)
	}
}

func TestTracedOpsAlternateInPairs(t *testing.T) {
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, traced(i))
	}
	want := []bool{true, true, false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("traced ops %v, want %v", got, want)
		}
	}
}

func TestTraceOverheadIsTracedOverUntraced(t *testing.T) {
	w, _ := findWorkload("poll_sweep")
	e := &env{seed: 1, nproc: 2, dir: t.TempDir(), toy: true, tr: newTracer()}
	res, err := runWorkload(w, e, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.m.vals["driver.trace_overhead_pct"]; !ok {
		t.Fatal("eight ops, four of them untraced, gave no overhead figure")
	}
	if got := res.m.vals["ipmi.exchanges_per_op"].Value; got != 5*64 {
		t.Errorf("%v exchanges per traced sweep of 64 nodes, want %d", got, 5*64)
	}
	if got := res.m.vals["driver.self_pct"].Value; got < 0 || got > 10 {
		t.Errorf("driver self time %v %% of a traced op", got)
	}
}

package main

// In-memory spans recorded from the benchmark's own files, around the
// calls into each layer. A span has a name, a start, an end, the span
// that caused it and the id of the op it belongs to. Nothing is written
// anywhere until the run ends.

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
)

// Span names: one per layer boundary the benchmark can see from outside.
const (
	spanOp        = "driver.op"
	spanTick      = "fleet.tick"
	spanPoll      = "dcm.poll"
	spanRebalance = "shard.rebalance"
	spanExchange  = "ipmi.exchange"
	spanSweep     = "core.sweep"
)

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for an op's root
	Op     int32  `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans while on. The driver goroutine opens and closes
// the layer spans one at a time (push/pop); manager worker goroutines
// record leaf spans under whichever layer span is open (begin/end).
// Every method is a no-op on a nil tracer, which is what the untraced
// run passes.
type tracer struct {
	t0 time.Time
	on atomic.Bool
	// cur is the innermost open driver span, the parent of any span a
	// worker goroutine begins.
	cur atomic.Int32
	op  atomic.Int32

	mu    sync.Mutex
	spans []span

	tx, rx atomic.Int64 // bytes through counted conns while on
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	s := span{Name: name, Parent: t.cur.Load(), Op: t.op.Load(), Start: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// push opens a driver span and makes it the parent of what follows.
func (t *tracer) push(name string) int32 {
	i := t.begin(name)
	if i >= 0 {
		t.cur.Store(i)
	}
	return i
}

// pop closes a driver span opened by push.
func (t *tracer) pop(i int32) {
	if i < 0 {
		return
	}
	t.end(i)
	t.mu.Lock()
	parent := t.spans[i].Parent
	t.mu.Unlock()
	t.cur.Store(parent)
}

// startOp turns recording on for op id and opens its root span.
func (t *tracer) startOp(id int) int32 {
	if t == nil {
		return -1
	}
	t.op.Store(int32(id))
	t.cur.Store(-1)
	t.on.Store(true)
	return t.push(spanOp)
}

// endOp closes the root span and turns recording off.
func (t *tracer) endOp(root int32) {
	if t == nil {
		return
	}
	t.pop(root)
	t.on.Store(false)
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for every span, its duration minus the union of
// the intervals its children cover (clipped to the span): overlapping
// children — two poll workers' exchanges — are not subtracted twice.
func selfTimes(spans []span) []int64 {
	// Children grouped by parent with a counting sort: first[p] is
	// where parent p's children start in kids.
	first := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.Parent >= 0 {
			first[s.Parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, first[len(spans)])
	next := append([]int32(nil), first...)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[next[s.Parent]] = int32(i)
			next[s.Parent]++
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		ks := kids[first[i]:first[i+1]]
		if len(ks) > 1 {
			sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		}
		covered, hi := int64(0), s.Start
		for _, k := range ks {
			lo, end := max(spans[k].Start, hi), min(spans[k].End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// tracedBMC records one span per client call, as the manager sees it.
type tracedBMC struct {
	dcm.BMC
	tr *tracer
}

func (b *tracedBMC) GetDeviceID() (ipmi.DeviceInfo, error) {
	defer b.tr.end(b.tr.begin(spanExchange))
	return b.BMC.GetDeviceID()
}

func (b *tracedBMC) GetPowerReading() (ipmi.PowerReading, error) {
	defer b.tr.end(b.tr.begin(spanExchange))
	return b.BMC.GetPowerReading()
}

func (b *tracedBMC) SetPowerLimit(l ipmi.PowerLimit) error {
	defer b.tr.end(b.tr.begin(spanExchange))
	return b.BMC.SetPowerLimit(l)
}

func (b *tracedBMC) GetPowerLimit() (ipmi.PowerLimit, error) {
	defer b.tr.end(b.tr.begin(spanExchange))
	return b.BMC.GetPowerLimit()
}

func (b *tracedBMC) GetPStateInfo() (ipmi.PStateInfo, error) {
	defer b.tr.end(b.tr.begin(spanExchange))
	return b.BMC.GetPStateInfo()
}

func (b *tracedBMC) GetGatingLevel() (int, error) {
	defer b.tr.end(b.tr.begin(spanExchange))
	return b.BMC.GetGatingLevel()
}

func (b *tracedBMC) GetCapabilities() (ipmi.Capabilities, error) {
	defer b.tr.end(b.tr.begin(spanExchange))
	return b.BMC.GetCapabilities()
}

func (b *tracedBMC) GetHealth() (ipmi.Health, error) {
	defer b.tr.end(b.tr.begin(spanExchange))
	return b.BMC.GetHealth()
}

// countingConn counts the bytes of traced ops through a client's conn.
type countingConn struct {
	net.Conn
	tr *tracer
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.tr.on.Load() {
		c.tr.tx.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.tr.on.Load() {
		c.tr.rx.Add(int64(n))
	}
	return n, err
}

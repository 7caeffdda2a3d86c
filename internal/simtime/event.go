package simtime

import "container/heap"

// Event is a callback scheduled at an absolute simulated time.
type Event struct {
	At Duration
	Fn func(now Duration)

	index int // heap bookkeeping
	seq   uint64
}

// EventQueue is a deterministic priority queue of events ordered by
// time, with FIFO tie-breaking so that two events scheduled for the
// same instant fire in scheduling order. The node simulator uses it to
// interleave periodic activities (BMC control ticks, meter samples)
// with workload execution.
type EventQueue struct {
	h   eventHeap
	seq uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Schedule enqueues fn to run at time at.
func (q *EventQueue) Schedule(at Duration, fn func(now Duration)) *Event {
	e := &Event{Fn: fn}
	q.Rearm(e, at)
	return e
}

// Rearm enqueues e, which must not be pending, to fire again at time
// at. It takes its place in the FIFO tie-break exactly as a freshly
// scheduled event would, so a periodic event can re-arm itself from
// its own callback without allocating.
func (q *EventQueue) Rearm(e *Event, at Duration) {
	e.At, e.seq = at, q.seq
	q.seq++
	heap.Push(&q.h, e)
}

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return q.h.Len() }

// PeekTime reports the time of the earliest pending event. The second
// result is false when the queue is empty.
func (q *EventQueue) PeekTime() (Duration, bool) {
	if q.h.Len() == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// Pop removes and returns the earliest event. It panics on an empty
// queue; callers check Len or PeekTime first.
func (q *EventQueue) Pop() *Event {
	return heap.Pop(&q.h).(*Event)
}

// RunUntil fires, in order, every event scheduled at or before t.
// Events may schedule further events; those are honoured if they also
// fall at or before t.
func (q *EventQueue) RunUntil(t Duration) {
	for {
		at, ok := q.PeekTime()
		if !ok || at > t {
			return
		}
		e := q.Pop()
		e.Fn(e.At)
	}
}

// Clear drops all pending events.
func (q *EventQueue) Clear() {
	q.h = q.h[:0]
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

package dcm

import "time"

// packedSample is a Sample as one node's history retains it: 32 bytes
// and no pointers, so the garbage collector never walks a history. The
// stamp is wall-clock nanoseconds (a Sample's monotonic reading and
// location are not kept; History returns local times, as time.Now
// does). The narrow fields hold everything the wire can carry:
// frequency is a uint16 there, P-state and gating level a byte each.
type packedSample struct {
	atNS           int64
	power, average float64
	freqMHz        int32
	pstate, gating int16
}

// historyChunk is how many samples a history grows by: 512 bytes at a
// time, so a short history is not rounded up to a power of two.
const historyChunk = 16

// history is one node's retained samples, oldest first: a queue of
// fixed-size chunks. A push never moves a sample — it fills the last
// chunk or adds one — and once the limit is reached the oldest chunk,
// emptied one sample per push, is recycled as the newest. Retained
// memory is ⌈(head+n)/historyChunk⌉ chunks of 512 bytes, i.e. 32 bytes a
// sample plus at most two partly used chunks. Guarded by Manager.mu.
type history struct {
	chunks []*[historyChunk]packedSample
	head   int // index of the oldest sample in chunks[0]
	n      int // samples retained
}

// push retains s as the newest sample, first dropping the oldest ones
// so that at most limit remain afterwards; limit <= 0 keeps nothing. It
// returns the change in n.
func (h *history) push(s Sample, limit int) int {
	before := h.n
	if limit <= 0 {
		*h = history{}
		return -before
	}
	if drop := h.n + 1 - limit; drop > 0 {
		h.head += drop
		h.n -= drop
		if free := h.head / historyChunk; free > 0 {
			// The front chunks are empty. Keep one as the next tail; a
			// lowered limit lets the others go.
			spare := h.chunks[0]
			kept := copy(h.chunks, h.chunks[free:])
			clear(h.chunks[kept:])
			h.chunks = append(h.chunks[:kept], spare)
			h.head -= free * historyChunk
		}
	}
	i := h.head + h.n
	if i == len(h.chunks)*historyChunk {
		h.chunks = append(h.chunks, new([historyChunk]packedSample))
	}
	h.chunks[i/historyChunk][i%historyChunk] = packedSample{
		atNS:    s.At.UnixNano(),
		power:   s.PowerWatts,
		average: s.AverageWatts,
		freqMHz: int32(s.FreqMHz),
		pstate:  int16(s.PState),
		gating:  int16(s.GatingLevel),
	}
	h.n++
	return h.n - before
}

// samples unpacks the retained samples, oldest first.
func (h *history) samples() []Sample {
	out := make([]Sample, h.n)
	for k := range out {
		i := h.head + k
		p := &h.chunks[i/historyChunk][i%historyChunk]
		out[k] = Sample{
			At:           time.Unix(0, p.atNS),
			PowerWatts:   p.power,
			AverageWatts: p.average,
			FreqMHz:      int(p.freqMHz),
			PState:       int(p.pstate),
			GatingLevel:  int(p.gating),
		}
	}
	return out
}

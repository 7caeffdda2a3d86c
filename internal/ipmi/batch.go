package ipmi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
)

// Batched session multiplexing: one shared connection carries the
// management traffic for many logical node sessions, so a leaf manager
// fronting a 10k-node shard does not need 10k TCP connections. A batch
// frame addresses nodes by numeric ID and returns a per-node completion
// code for every entry, so one dead node cannot fail a whole batch.
//
// Batch payloads carry their own CRC-32 (IEEE) trailer on top of the
// frame checksum: the frame checksum is a single byte and batch frames
// are the largest payloads in the protocol, where a one-byte sum is
// weakest. The CRC covers every payload byte before the trailer.

// Batch command codes.
const (
	CmdBatchPoll = 0x09
	CmdBatchSet  = 0x0A
)

// CCNotPresent (IPMI "requested sensor, data, or record not present")
// is the per-entry completion code for a node ID the endpoint does not
// multiplex.
const CCNotPresent = 0xCB

// MaxBatchEntries bounds one batch frame. 24 entries keeps every batch
// payload direction — including the 18-byte-per-entry poll response —
// inside MaxPayload; Client.BatchPoll/BatchSet chunk transparently.
const MaxBatchEntries = 24

// Per-entry wire sizes.
const (
	batchPollReqEntry  = 4             // id
	batchPollRespEntry = 4 + 1 + 8 + 5 // id cc reading(8) limit flag+centiwatts(5)
	batchSetReqEntry   = 4 + 1 + 4 + 8 // id flag centiwatts epoch
	batchSetRespEntry  = 4 + 1         // id cc
	batchOverhead      = 1 + 4         // count byte + crc32 trailer
)

// BatchPollResult is one node's slot in a BatchPoll response. Reading
// and Limit are meaningful only when CC == CCOK; Limit carries the
// applied policy (flag + watts, no epoch) so a new owner can learn —
// and re-assert under its own epoch — the caps a previous owner left
// behind during a shard handoff.
type BatchPollResult struct {
	ID      uint32
	CC      byte
	Reading PowerReading
	Limit   PowerLimit
}

// BatchSetEntry is one node's slot in a BatchSet request. The limit's
// epoch rides every entry (fixed 8-byte field, unlike the single-node
// codec's optional trailer) and is fenced per node by the endpoint.
type BatchSetEntry struct {
	ID    uint32
	Limit PowerLimit
}

// BatchSetResult is one node's slot in a BatchSet response.
type BatchSetResult struct {
	ID uint32
	CC byte
}

// sealBatch appends the CRC-32 trailer over everything written so far.
func sealBatch(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// openBatch validates the count byte, the exact entry length and the
// CRC trailer, returning the entry bytes and count.
func openBatch(b []byte, entrySize int) ([]byte, int, error) {
	if len(b) < batchOverhead {
		return nil, 0, fmt.Errorf("ipmi: batch payload length %d", len(b))
	}
	n := int(b[0])
	if len(b) != 1+n*entrySize+4 {
		return nil, 0, fmt.Errorf("ipmi: batch payload length %d for %d entries of %d", len(b), n, entrySize)
	}
	body := b[: len(b)-4 : len(b)-4]
	if got, want := binary.BigEndian.Uint32(b[len(b)-4:]), crc32.ChecksumIEEE(body); got != want {
		return nil, 0, fmt.Errorf("ipmi: batch crc mismatch: got %#x want %#x", got, want)
	}
	return body[1:], n, nil
}

// EncodeBatchPollRequest packs a BatchPoll request: count(1) ids(4n)
// crc(4).
func EncodeBatchPollRequest(ids []uint32) ([]byte, error) {
	if err := checkBatchLen(len(ids), batchPollReqEntry); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 1+len(ids)*batchPollReqEntry+4)
	b = append(b, byte(len(ids)))
	for _, id := range ids {
		b = binary.BigEndian.AppendUint32(b, id)
	}
	return sealBatch(b), nil
}

// DecodeBatchPollRequest unpacks a BatchPoll request.
func DecodeBatchPollRequest(b []byte) ([]uint32, error) {
	body, n, err := openBatch(b, batchPollReqEntry)
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint32(body[i*batchPollReqEntry:])
	}
	return ids, nil
}

// EncodeBatchPollResponse packs a BatchPoll response: count(1) then per
// entry id(4) cc(1) current(4) average(4) capEnabled(1) capWatts(4),
// then crc(4).
func EncodeBatchPollResponse(results []BatchPollResult) ([]byte, error) {
	if err := checkBatchLen(len(results), batchPollRespEntry); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 1+len(results)*batchPollRespEntry+4)
	b = append(b, byte(len(results)))
	for _, r := range results {
		b = binary.BigEndian.AppendUint32(b, r.ID)
		b = append(b, r.CC)
		var e [17]byte
		putWatts(e[0:], r.Reading.CurrentWatts)
		putWatts(e[4:], r.Reading.AverageWatts)
		if r.Limit.Enabled {
			e[8] = 1
		}
		putWatts(e[9:], r.Limit.CapWatts)
		b = append(b, e[:13]...)
	}
	return sealBatch(b), nil
}

// DecodeBatchPollResponse unpacks a BatchPoll response.
func DecodeBatchPollResponse(b []byte) ([]BatchPollResult, error) {
	body, n, err := openBatch(b, batchPollRespEntry)
	if err != nil {
		return nil, err
	}
	out := make([]BatchPollResult, n)
	for i := range out {
		e := body[i*batchPollRespEntry:]
		out[i] = BatchPollResult{
			ID: binary.BigEndian.Uint32(e),
			CC: e[4],
			Reading: PowerReading{
				CurrentWatts: getWatts(e[5:]),
				AverageWatts: getWatts(e[9:]),
			},
			Limit: PowerLimit{Enabled: e[13] != 0, CapWatts: getWatts(e[14:])},
		}
	}
	return out, nil
}

// EncodeBatchSetRequest packs a BatchSet request: count(1) then per
// entry id(4) enabled(1) centiwatts(4) epoch(8), then crc(4).
func EncodeBatchSetRequest(entries []BatchSetEntry) ([]byte, error) {
	if err := checkBatchLen(len(entries), batchSetReqEntry); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 1+len(entries)*batchSetReqEntry+4)
	b = append(b, byte(len(entries)))
	for _, e := range entries {
		b = binary.BigEndian.AppendUint32(b, e.ID)
		if e.Limit.Enabled {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		var w [4]byte
		putWatts(w[:], e.Limit.CapWatts)
		b = append(b, w[:]...)
		b = binary.BigEndian.AppendUint64(b, e.Limit.Epoch)
	}
	return sealBatch(b), nil
}

// DecodeBatchSetRequest unpacks a BatchSet request.
func DecodeBatchSetRequest(b []byte) ([]BatchSetEntry, error) {
	body, n, err := openBatch(b, batchSetReqEntry)
	if err != nil {
		return nil, err
	}
	out := make([]BatchSetEntry, n)
	for i := range out {
		e := body[i*batchSetReqEntry:]
		out[i] = BatchSetEntry{
			ID: binary.BigEndian.Uint32(e),
			Limit: PowerLimit{
				Enabled:  e[4] != 0,
				CapWatts: getWatts(e[5:]),
				Epoch:    binary.BigEndian.Uint64(e[9:]),
			},
		}
	}
	return out, nil
}

// EncodeBatchSetResponse packs a BatchSet response: count(1) then per
// entry id(4) cc(1), then crc(4).
func EncodeBatchSetResponse(results []BatchSetResult) ([]byte, error) {
	if err := checkBatchLen(len(results), batchSetRespEntry); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 1+len(results)*batchSetRespEntry+4)
	b = append(b, byte(len(results)))
	for _, r := range results {
		b = binary.BigEndian.AppendUint32(b, r.ID)
		b = append(b, r.CC)
	}
	return sealBatch(b), nil
}

// DecodeBatchSetResponse unpacks a BatchSet response.
func DecodeBatchSetResponse(b []byte) ([]BatchSetResult, error) {
	body, n, err := openBatch(b, batchSetRespEntry)
	if err != nil {
		return nil, err
	}
	out := make([]BatchSetResult, n)
	for i := range out {
		e := body[i*batchSetRespEntry:]
		out[i] = BatchSetResult{ID: binary.BigEndian.Uint32(e), CC: e[4]}
	}
	return out, nil
}

// checkBatchLen bounds one encoded batch to a single frame.
func checkBatchLen(n, entrySize int) error {
	if n > 255 || batchOverhead+n*entrySize > MaxPayload {
		return fmt.Errorf("ipmi: batch of %d entries exceeds one frame", n)
	}
	return nil
}

// Mux multiplexes many node endpoints behind one listener. Batch
// entries are dispatched through each node's own *Server.Handle as
// inner frames, so the per-node fencing watermark is shared between
// the batched path and any direct per-node connection — a deposed
// leaf cannot sneak a stale cap past the fence by switching transports.
type Mux struct {
	frameListener
	nodesMu sync.RWMutex
	nodes   map[uint32]*Server
}

// NewMux builds an empty multiplexer.
func NewMux() *Mux {
	m := &Mux{nodes: make(map[uint32]*Server)}
	m.frameListener = frameListener{handle: m.Handle, conns: make(map[net.Conn]struct{})}
	return m
}

// Register exposes srv as node id. Re-registering an id replaces the
// previous endpoint.
func (m *Mux) Register(id uint32, srv *Server) {
	m.nodesMu.Lock()
	m.nodes[id] = srv
	m.nodesMu.Unlock()
}

// Unregister removes node id; subsequent batch entries for it complete
// with CCNotPresent.
func (m *Mux) Unregister(id uint32) {
	m.nodesMu.Lock()
	delete(m.nodes, id)
	m.nodesMu.Unlock()
}

// node looks up one endpoint.
func (m *Mux) node(id uint32) *Server {
	m.nodesMu.RLock()
	defer m.nodesMu.RUnlock()
	return m.nodes[id]
}

// Handle processes one batch request frame. Non-batch commands are
// rejected: a multiplexed connection has no single implied node to
// route them to.
func (m *Mux) Handle(req Frame) Frame {
	resp := Frame{Seq: req.Seq, NetFn: NetFnOEMResponse, Cmd: req.Cmd}
	fail := func(cc byte) Frame {
		resp.Payload = []byte{cc}
		return resp
	}
	if req.NetFn != NetFnOEM {
		return fail(CCInvalidCommand)
	}
	switch req.Cmd {
	case CmdBatchPoll:
		ids, err := DecodeBatchPollRequest(req.Payload)
		if err != nil {
			return fail(CCInvalidData)
		}
		results := make([]BatchPollResult, len(ids))
		for i, id := range ids {
			results[i] = m.pollOne(req.Seq, id)
		}
		b, err := EncodeBatchPollResponse(results)
		if err != nil {
			return fail(CCInvalidData)
		}
		resp.Payload = append([]byte{CCOK}, b...)
	case CmdBatchSet:
		entries, err := DecodeBatchSetRequest(req.Payload)
		if err != nil {
			return fail(CCInvalidData)
		}
		results := make([]BatchSetResult, len(entries))
		for i, e := range entries {
			results[i] = BatchSetResult{ID: e.ID, CC: m.setOne(req.Seq, e)}
		}
		b, err := EncodeBatchSetResponse(results)
		if err != nil {
			return fail(CCInvalidData)
		}
		resp.Payload = append([]byte{CCOK}, b...)
	default:
		return fail(CCInvalidCommand)
	}
	return resp
}

// pollOne reads one node's power and applied limit through its own
// server dispatch.
func (m *Mux) pollOne(seq uint32, id uint32) BatchPollResult {
	r := BatchPollResult{ID: id}
	srv := m.node(id)
	if srv == nil {
		r.CC = CCNotPresent
		return r
	}
	pr := srv.Handle(Frame{Seq: seq, NetFn: NetFnOEM, Cmd: CmdGetPowerReading})
	if cc := ccOf(pr); cc != CCOK {
		r.CC = cc
		return r
	}
	reading, err := DecodePowerReading(pr.Payload[1:])
	if err != nil {
		r.CC = CCUnspecified
		return r
	}
	r.Reading = reading
	pl := srv.Handle(Frame{Seq: seq, NetFn: NetFnOEM, Cmd: CmdGetPowerLimit})
	if cc := ccOf(pl); cc != CCOK {
		r.CC = cc
		return r
	}
	lim, err := DecodePowerLimit(pl.Payload[1:])
	if err != nil {
		r.CC = CCUnspecified
		return r
	}
	r.Limit = lim
	r.CC = CCOK
	return r
}

// setOne pushes one node's limit through its own server dispatch —
// including the fencing check, whose watermark this shares with the
// per-node path.
func (m *Mux) setOne(seq uint32, e BatchSetEntry) byte {
	srv := m.node(e.ID)
	if srv == nil {
		return CCNotPresent
	}
	return ccOf(srv.Handle(Frame{
		Seq: seq, NetFn: NetFnOEM, Cmd: CmdSetPowerLimit,
		Payload: EncodePowerLimit(e.Limit),
	}))
}

// ccOf extracts a response frame's completion code.
func ccOf(f Frame) byte {
	if len(f.Payload) < 1 {
		return CCUnspecified
	}
	return f.Payload[0]
}

// BatchPoll reads power and applied limits for ids over a multiplexed
// connection, chunking transparently at MaxBatchEntries. Results come
// back in request order, one per id, each with its own completion code.
func (c *Client) BatchPoll(ids []uint32) ([]BatchPollResult, error) {
	out := make([]BatchPollResult, 0, len(ids))
	for len(ids) > 0 {
		n := min(len(ids), MaxBatchEntries)
		payload, err := EncodeBatchPollRequest(ids[:n])
		if err != nil {
			return nil, err
		}
		b, err := c.call(CmdBatchPoll, payload)
		if err != nil {
			return nil, err
		}
		results, err := DecodeBatchPollResponse(b)
		if err != nil {
			return nil, c.markBroken(err)
		}
		if len(results) != n {
			return nil, c.markBroken(fmt.Errorf("ipmi: batch poll returned %d results for %d ids", len(results), n))
		}
		out = append(out, results...)
		ids = ids[n:]
	}
	return out, nil
}

// BatchSet pushes limits for entries over a multiplexed connection,
// chunking transparently at MaxBatchEntries. Every entry gets its own
// completion code; a fenced or absent node fails only its slot.
func (c *Client) BatchSet(entries []BatchSetEntry) ([]BatchSetResult, error) {
	out := make([]BatchSetResult, 0, len(entries))
	for len(entries) > 0 {
		n := min(len(entries), MaxBatchEntries)
		payload, err := EncodeBatchSetRequest(entries[:n])
		if err != nil {
			return nil, err
		}
		b, err := c.call(CmdBatchSet, payload)
		if err != nil {
			return nil, err
		}
		results, err := DecodeBatchSetResponse(b)
		if err != nil {
			return nil, c.markBroken(err)
		}
		if len(results) != n {
			return nil, c.markBroken(fmt.Errorf("ipmi: batch set returned %d results for %d entries", len(results), n))
		}
		out = append(out, results...)
		entries = entries[n:]
	}
	return out, nil
}

// markBroken poisons the stream after a malformed batch response: the
// frame was aligned but its content cannot be trusted.
func (c *Client) markBroken(err error) error {
	c.mu.Lock()
	c.broken = true
	c.mu.Unlock()
	return err
}

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

// sealBatch appends the CRC-32 trailer over the batch payload that
// starts at b[start].
func sealBatch(b []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
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
	return appendBatchPollRequest(make([]byte, 0, batchOverhead+len(ids)*batchPollReqEntry), ids), nil
}

func appendBatchPollRequest(b []byte, ids []uint32) []byte {
	start := len(b)
	b = append(b, byte(len(ids)))
	for _, id := range ids {
		b = binary.BigEndian.AppendUint32(b, id)
	}
	return sealBatch(b, start)
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
	return appendBatchPollResponse(make([]byte, 0, batchOverhead+len(results)*batchPollRespEntry), results), nil
}

func appendBatchPollResponse(b []byte, results []BatchPollResult) []byte {
	start := len(b)
	b = append(b, byte(len(results)))
	for _, r := range results {
		b = append(binary.BigEndian.AppendUint32(b, r.ID), r.CC)
		b = appendPowerReading(b, r.Reading)
		b = appendWatts(append(b, flagByte(r.Limit.Enabled)), r.Limit.CapWatts)
	}
	return sealBatch(b, start)
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
	if err := checkLimits(entries); err != nil {
		return nil, err
	}
	return appendBatchSetRequest(make([]byte, 0, batchOverhead+len(entries)*batchSetReqEntry), entries), nil
}

func appendBatchSetRequest(b []byte, entries []BatchSetEntry) []byte {
	start := len(b)
	b = append(b, byte(len(entries)))
	for _, e := range entries {
		b = append(binary.BigEndian.AppendUint32(b, e.ID), flagByte(e.Limit.Enabled))
		b = binary.BigEndian.AppendUint64(appendWatts(b, e.Limit.CapWatts), e.Limit.Epoch)
	}
	return sealBatch(b, start)
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
	return appendBatchSetResponse(make([]byte, 0, batchOverhead+len(results)*batchSetRespEntry), results), nil
}

func appendBatchSetResponse(b []byte, results []BatchSetResult) []byte {
	start := len(b)
	b = append(b, byte(len(results)))
	for _, r := range results {
		b = append(binary.BigEndian.AppendUint32(b, r.ID), r.CC)
	}
	return sealBatch(b, start)
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

// checkLimits refuses a batch with any limit the wire cannot carry (see
// checkLimit), naming the node.
func checkLimits(entries []BatchSetEntry) error {
	for _, e := range entries {
		if err := checkLimit(e.Limit); err != nil {
			return fmt.Errorf("%w (node id %d)", err, e.ID)
		}
	}
	return nil
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
	m.frameListener = frameListener{respond: m.respond, conns: make(map[net.Conn]struct{})}
	return m
}

// Register exposes srv as node id. Re-registering an id replaces the
// previous endpoint.
func (m *Mux) Register(id uint32, srv *Server) {
	m.nodesMu.Lock()
	m.nodes[id] = srv
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
	return Frame{
		Seq: req.Seq, NetFn: NetFnOEMResponse, Cmd: req.Cmd,
		Payload: m.respond(make([]byte, 0, MaxPayload), req),
	}
}

// respond appends req's response payload to dst (see
// frameListener.respond). A request may carry more entries than one
// response frame can answer; that is refused as invalid data.
func (m *Mux) respond(dst []byte, req Frame) []byte {
	if req.NetFn != NetFnOEM {
		return append(dst, CCInvalidCommand)
	}
	switch req.Cmd {
	case CmdBatchPoll:
		ids, err := DecodeBatchPollRequest(req.Payload)
		if err != nil || checkBatchLen(len(ids), batchPollRespEntry) != nil {
			return append(dst, CCInvalidData)
		}
		results := make([]BatchPollResult, len(ids))
		for i, id := range ids {
			results[i] = m.pollOne(req.Seq, id)
		}
		return appendBatchPollResponse(append(dst, CCOK), results)
	case CmdBatchSet:
		entries, err := DecodeBatchSetRequest(req.Payload)
		if err != nil {
			return append(dst, CCInvalidData)
		}
		results := make([]BatchSetResult, len(entries))
		for i, e := range entries {
			results[i] = BatchSetResult{ID: e.ID, CC: m.setOne(req.Seq, e)}
		}
		return appendBatchSetResponse(append(dst, CCOK), results)
	default:
		return append(dst, CCInvalidCommand)
	}
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
	var buf [16]byte // holds either response payload
	pr := srv.respond(buf[:0], Frame{Seq: seq, NetFn: NetFnOEM, Cmd: CmdGetPowerReading})
	if pr[0] != CCOK {
		r.CC = pr[0]
		return r
	}
	reading, err := DecodePowerReading(pr[1:])
	if err != nil {
		r.CC = CCUnspecified
		return r
	}
	r.Reading = reading
	pl := srv.respond(buf[:0], Frame{Seq: seq, NetFn: NetFnOEM, Cmd: CmdGetPowerLimit})
	if pl[0] != CCOK {
		r.CC = pl[0]
		return r
	}
	lim, err := DecodePowerLimit(pl[1:])
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
	var req, resp [16]byte
	return srv.respond(resp[:0], Frame{
		Seq: seq, NetFn: NetFnOEM, Cmd: CmdSetPowerLimit,
		Payload: appendPowerLimit(req[:0], e.Limit),
	})[0]
}

// batchExchange sends one batch frame — appendReq appends chunk's
// payload to the request — and decodes the response's results before
// releasing c.mu (see Client's buffer-ownership rule). A malformed
// response poisons the stream: the frame was aligned but its content
// cannot be trusted.
func batchExchange[E, R any](c *Client, cmd uint8, chunk []E, appendReq func([]byte, []E) []byte, decode func([]byte) ([]R, error)) ([]R, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := c.exchange(appendReq(c.request(cmd), chunk))
	if err != nil {
		return nil, err
	}
	results, err := decode(b)
	if err == nil && len(results) != len(chunk) {
		err = fmt.Errorf("ipmi: batch command %#x returned %d results for %d entries", cmd, len(results), len(chunk))
	}
	if err != nil {
		c.broken = true
		return nil, err
	}
	return results, nil
}

// batchCall runs a batch command over in, one frame per MaxBatchEntries
// chunk, and returns the results in request order, one per entry.
func batchCall[E, R any](c *Client, cmd uint8, in []E, appendReq func([]byte, []E) []byte, decode func([]byte) ([]R, error)) ([]R, error) {
	out := make([]R, 0, len(in))
	for len(in) > 0 {
		chunk := in[:min(len(in), MaxBatchEntries)]
		results, err := batchExchange(c, cmd, chunk, appendReq, decode)
		if err != nil {
			return nil, err
		}
		out = append(out, results...)
		in = in[len(chunk):]
	}
	return out, nil
}

// BatchPoll reads power and applied limits for ids over a multiplexed
// connection, chunking transparently at MaxBatchEntries. Results come
// back in request order, one per id, each with its own completion code.
func (c *Client) BatchPoll(ids []uint32) ([]BatchPollResult, error) {
	return batchCall(c, CmdBatchPoll, ids, appendBatchPollRequest, DecodeBatchPollResponse)
}

// BatchSet pushes limits for entries over a multiplexed connection,
// chunking transparently at MaxBatchEntries. Every entry gets its own
// completion code; a fenced or absent node fails only its slot. A
// limit the wire cannot carry fails the whole call before any I/O.
func (c *Client) BatchSet(entries []BatchSetEntry) ([]BatchSetResult, error) {
	if err := checkLimits(entries); err != nil {
		return nil, err
	}
	return batchCall(c, CmdBatchSet, entries, appendBatchSetRequest, DecodeBatchSetResponse)
}

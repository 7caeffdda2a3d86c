package ipmi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nodecap/internal/telemetry"
)

// NodeControl is the management surface a BMC endpoint exposes over
// IPMI. Implementations must be safe for concurrent use (the server
// serializes per connection but accepts several connections).
type NodeControl interface {
	DeviceInfo() DeviceInfo
	PowerReading() PowerReading
	SetPowerLimit(PowerLimit) error
	PowerLimit() PowerLimit
	PStateInfo() PStateInfo
	GatingLevel() int
	Capabilities() Capabilities
	Health() Health
}

// frameListener is the TCP side ipmi.Server and ipmi.Mux share: accept,
// track connections, answer each frame through respond until the peer
// hangs up. The embedding type's constructor sets respond once.
type frameListener struct {
	// respond appends req's response payload, completion code first, to
	// dst. req.Payload aliases the connection's read buffer, so respond
	// must not keep it.
	respond func(dst []byte, req Frame) []byte

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address. A closed listener refuses.
func (l *frameListener) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ln.Close()
		return "", errors.New("ipmi: server closed")
	}
	l.listener = ln
	l.mu.Unlock()
	l.wg.Add(1)
	go l.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (l *frameListener) acceptLoop(ln net.Listener) {
	defer l.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

func (l *frameListener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	// Both buffers belong to this connection end: a request is answered
	// in place before the next one is read over it.
	var rd frameReader
	out := make([]byte, 0, inlineFrameLen)
	for {
		req, err := rd.next(conn)
		if err != nil {
			return // EOF, malformed frame, or closed connection
		}
		out, err = sealFrame(l.respond(beginFrame(out[:0], req.Seq, NetFnOEMResponse, req.Cmd), req))
		if err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// Close stops the listener and all connections, waiting for handlers
// to finish.
func (l *frameListener) Close() error {
	l.mu.Lock()
	l.closed = true
	ln := l.listener
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	l.wg.Wait()
	return nil
}

// Server serves the BMC management endpoint over TCP (the BMC's
// dedicated NIC in the paper's architecture).
type Server struct {
	frameListener
	ctl NodeControl

	// fence is the highest non-zero fencing epoch this endpoint has
	// honoured; SetPowerLimit pushes stamped with a lower non-zero
	// epoch are rejected with CCStaleEpoch before they reach ctl.
	fence atomic.Uint64
	// fencingOff disables the stale-epoch rejection. It exists only so
	// the chaos harness can prove its single_writer invariant catches a
	// BMC that forgets to fence (see chaos.Scenario.BreakFencing).
	fencingOff atomic.Bool
}

// NewServer builds a server for ctl.
func NewServer(ctl NodeControl) *Server {
	s := &Server{ctl: ctl}
	s.frameListener = frameListener{respond: s.respond, conns: make(map[net.Conn]struct{})}
	return s
}

// Handle processes one request frame and produces the response frame.
// It is the in-process endpoint: a Loopback over it runs the client
// against the dispatch table without a socket.
func (s *Server) Handle(req Frame) Frame {
	// The buffer holds the longest response payload (completion code and
	// a status with a fenced limit, 32), so the payload is the one
	// allocation.
	return Frame{
		Seq: req.Seq, NetFn: NetFnOEMResponse, Cmd: req.Cmd,
		Payload: s.respond(make([]byte, 0, 1+statusFixedLen+13), req),
	}
}

// respond is the dispatch table: it appends req's response payload to
// dst (see frameListener.respond).
func (s *Server) respond(dst []byte, req Frame) []byte {
	if req.NetFn != NetFnOEM {
		return append(dst, CCInvalidCommand)
	}
	switch req.Cmd {
	case CmdGetDeviceID:
		return appendDeviceInfo(append(dst, CCOK), s.ctl.DeviceInfo())
	case CmdGetPowerReading:
		return appendPowerReading(append(dst, CCOK), s.ctl.PowerReading())
	case CmdSetPowerLimit:
		lim, err := DecodePowerLimit(req.Payload)
		if err != nil {
			return append(dst, CCInvalidData)
		}
		if !s.admitEpoch(lim.Epoch) {
			return append(dst, CCStaleEpoch)
		}
		if err := s.ctl.SetPowerLimit(lim); err != nil {
			return append(dst, CCUnspecified)
		}
		return append(dst, CCOK)
	case CmdGetPowerLimit:
		return appendPowerLimit(append(dst, CCOK), s.ctl.PowerLimit())
	case CmdGetPStateInfo:
		return appendPStateInfo(append(dst, CCOK), s.ctl.PStateInfo())
	case CmdGetGatingLevel:
		return append(dst, CCOK, byte(s.ctl.GatingLevel()))
	case CmdGetCapabilities:
		return appendCapabilities(append(dst, CCOK), s.ctl.Capabilities())
	case CmdGetHealth:
		return appendHealth(append(dst, CCOK), s.ctl.Health())
	case CmdGetStatus:
		// The five calls in the order the five Get commands make them.
		return appendStatus(append(dst, CCOK), NodeStatus{
			Reading: s.ctl.PowerReading(),
			PState:  s.ctl.PStateInfo(),
			Gating:  s.ctl.GatingLevel(),
			Limit:   s.ctl.PowerLimit(),
			Health:  s.ctl.Health(),
		})
	default:
		return append(dst, CCInvalidCommand)
	}
}

// admitEpoch applies the fencing rule for one SetPowerLimit push and
// advances the watermark. Epoch-zero (unfenced) pushes are always
// admitted: a solo manager predates leases, and rejecting it would
// strand every pre-HA deployment. Once any fenced writer has actuated,
// a *lower* non-zero epoch is a deposed leader and is refused.
func (s *Server) admitEpoch(epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	for {
		cur := s.fence.Load()
		if epoch < cur {
			return s.fencingOff.Load()
		}
		if s.fence.CompareAndSwap(cur, epoch) {
			return true
		}
	}
}

// FenceEpoch reports the highest fencing epoch honoured so far.
func (s *Server) FenceEpoch() uint64 { return s.fence.Load() }

// SetFencingEnabled toggles stale-epoch rejection (default on). Only
// the chaos harness's broken-guard self-test should ever turn it off.
func (s *Server) SetFencingEnabled(on bool) { s.fencingOff.Store(!on) }

// Default client timeouts; see DialTimeout.
const (
	DefaultConnectTimeout = 5 * time.Second
	DefaultRequestTimeout = 10 * time.Second
)

// ErrBroken reports that an earlier exchange on this client failed
// mid-frame (timeout, reset, short read), so the stream can no longer
// be trusted to be frame-aligned. The owner must redial.
var ErrBroken = errors.New("ipmi: connection broken by earlier I/O failure")

// ErrStaleEpoch reports that the BMC fenced a SetPowerLimit push: the
// caller's leadership epoch is older than one the node has already
// honoured. The caller must stop actuating and step down.
var ErrStaleEpoch = errors.New("ipmi: power limit rejected: stale fencing epoch")

// ErrPushInFlight reports a call made while an exchange sent by one
// half of a split call — SendPowerLimit or SendStatus — still awaits its
// answer, or an await of the other kind: the client holds one exchange
// at a time, so the call fails without I/O and the stream stays usable.
var ErrPushInFlight = errors.New("ipmi: an exchange awaits its answer")

// ErrStillAwaiting reports an AwaitStatusBy whose bound passed before
// the BMC answered: the read stays in flight, and AwaitStatus (or
// another AwaitStatusBy) resumes it where this one left off.
var ErrStillAwaiting = errors.New("ipmi: no answer yet")

// errNothingInFlight reports an await with no exchange sent.
var errNothingInFlight = errors.New("ipmi: no exchange awaits its answer")

// Client is a DCM-side connection to one BMC.
//
// Buffer ownership: the client builds every request in req and parses
// every response in place from rd's buffer, both owned by whoever holds
// mu. A response payload is therefore valid only until the next
// exchange on the connection, and every method decodes it before it
// releases mu.
//
// A cap push (SendPowerLimit, AwaitPowerLimit) and a status read
// (SendStatus, AwaitStatus) may each be split in two, so a manager can
// have many nodes' exchanges on the wire at once; between the halves
// the client holds that one exchange, and every other call — the other
// kind's await included — fails with ErrPushInFlight.
type Client struct {
	mu         sync.Mutex
	conn       net.Conn
	seq        uint32
	closed     atomic.Bool
	reqTimeout time.Duration
	broken     bool
	// legacy: the BMC answered GetStatus with CCInvalidCommand, so
	// ReadStatus makes the five Get exchanges instead.
	legacy bool
	// awaiting is the command whose response the connection owes: set
	// by a send, cleared by its await; zero when no request is out.
	awaiting uint8
	// rearm marks a read deadline AwaitStatusBy moved, which the next
	// read restores to due, or clears without a request timeout.
	rearm bool
	// due is the deadline the last send armed, as an offset from
	// clockBase: 8 bytes where a time.Time takes 24, on every client of
	// a fleet. Unset without a request timeout.
	due time.Duration
	req []byte
	rd  frameReader

	// Wire-level telemetry (SetCounters); nil-safe, so an unwired
	// client pays one predictable no-op per exchange.
	mRequests *telemetry.Counter
	mFailures *telemetry.Counter
}

// Dial connects to a BMC endpoint with the default timeouts.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultConnectTimeout, DefaultRequestTimeout)
}

// DialTimeout connects to a BMC endpoint, bounding the TCP connect by
// connectTimeout and every subsequent request/response exchange by
// requestTimeout (zero disables the respective bound).
func DialTimeout(addr string, connectTimeout, requestTimeout time.Duration) (*Client, error) {
	d := net.Dialer{Timeout: connectTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := NewClientConn(conn)
	c.reqTimeout = requestTimeout
	return c, nil
}

// NewClientConn wraps an existing connection (e.g. a net.Pipe end in
// tests, or a fault-injecting wrapper). No request timeout is set;
// use SetRequestTimeout to bound exchanges.
func NewClientConn(conn net.Conn) *Client {
	return &Client{conn: conn, req: make([]byte, 0, inlineReqLen)}
}

// inlineReqLen is a client's request buffer: the longest single-node
// request, a fenced SetPowerLimit, is 25 bytes.
const inlineReqLen = 32

// SetRequestTimeout bounds each request/response exchange; zero
// disables the bound and disarms the deadline the last exchange left
// on the connection.
func (c *Client) SetRequestTimeout(d time.Duration) {
	c.mu.Lock()
	c.reqTimeout = d
	if d <= 0 {
		c.conn.SetDeadline(time.Time{})
	}
	c.mu.Unlock()
}

// SetCounters wires per-exchange telemetry: requests counts every
// attempted exchange, failures the subset that errored (broken stream,
// timeout, frame mismatch, or a non-OK completion code). Either may be
// nil.
func (c *Client) SetCounters(requests, failures *telemetry.Counter) {
	c.mu.Lock()
	c.mRequests = requests
	c.mFailures = failures
	c.mu.Unlock()
}

// Close shuts the connection. Idempotent: a second Close returns nil.
// It deliberately does not take c.mu, so a hung in-flight call can
// still be aborted by closing the socket underneath it.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.conn.Close()
}

// request starts the next request frame in the client's own buffer
// and returns it for the caller to append the payload to and hand to
// exchange. The frame takes the next sequence number, which send
// claims. c.mu must be held.
func (c *Client) request(cmd uint8) []byte {
	return beginFrame(c.req[:0], c.seq+1, NetFnOEM, cmd)
}

// exchange sends the request begun by request and returns the response
// payload after its completion code. The payload aliases the read
// buffer: decode it before releasing c.mu, which must be held.
func (c *Client) exchange(req []byte) ([]byte, error) {
	if err := c.send(req); err != nil {
		return nil, err
	}
	return c.await(req[8])
}

// send is an exchange's first half: it seals and writes the request
// begun by request and arms the exchange's deadline, which then bounds
// the write and await's read together. Nothing clears the deadline; the
// next send re-arms it and SetRequestTimeout(0) disarms it. While an
// exchange awaits its answer, send refuses without I/O. c.mu must be
// held.
//
// A caller that sends to many BMCs and then awaits them in turn may
// reach an await after its deadline, while an earlier BMC used up the
// timeout; see lateAwaitGrace.
func (c *Client) send(req []byte) error {
	if c.awaiting != 0 {
		return ErrPushInFlight
	}
	c.seq++
	c.mRequests.Inc()
	if err := c.write(req); err != nil {
		c.mFailures.Inc()
		return err
	}
	c.awaiting = req[8]
	return nil
}

// write is send's body: it seals the request begun by request and
// writes it in one Write.
func (c *Client) write(b []byte) error {
	if c.broken || c.closed.Load() {
		// A Close that lands between call and lock acquisition must read
		// as the deliberate teardown it is, not a fresh socket error.
		c.broken = true
		return ErrBroken
	}
	if c.reqTimeout > 0 {
		due := time.Now().Add(c.reqTimeout)
		c.due = due.Sub(clockBase)
		c.conn.SetDeadline(due)
	}
	b, err := sealFrame(b)
	if err != nil {
		return c.brokenErr(err)
	}
	c.req = b // keep the buffer a batch request grew
	if _, err := c.conn.Write(b); err != nil {
		return c.brokenErr(err)
	}
	return nil
}

// clockBase anchors Client.due. It carries a monotonic reading, and so
// does every time derived from it.
var clockBase = time.Now()

// lateAwaitGrace is how long an await whose deadline has passed reads
// on. A read past its deadline fails without looking at the socket, so
// without the grace an ack that arrived in time would be lost because
// the caller was busy awaiting another BMC; an ack that has not arrived
// costs only the grace more.
const lateAwaitGrace = 10 * time.Millisecond

// await is an exchange's second half: it reads and checks the response
// to the cmd request send wrote. With another command's exchange in
// flight it refuses without I/O and leaves that exchange outstanding.
// c.mu must be held.
func (c *Client) await(cmd uint8) ([]byte, error) {
	switch c.awaiting {
	case cmd:
	case 0:
		return nil, errNothingInFlight
	default:
		return nil, ErrPushInFlight
	}
	c.awaiting = 0
	b, err := c.read(cmd)
	if err != nil {
		c.mFailures.Inc()
	}
	return b, err
}

// read is await's body: the response to cmd.
func (c *Client) read(cmd uint8) ([]byte, error) {
	if c.rearm {
		c.rearm = false
		var due time.Time
		if c.reqTimeout > 0 {
			due = clockBase.Add(c.due)
		}
		c.conn.SetReadDeadline(due)
	}
	resp, err := c.rd.next(c.conn)
	if isTimeout(err) && c.reqTimeout > 0 {
		// The reader keeps what it has read, so the retry resumes the
		// frame where the timeout left it.
		c.conn.SetDeadline(time.Now().Add(lateAwaitGrace))
		resp, err = c.rd.next(c.conn)
	}
	return c.check(resp, err, cmd)
}

// isTimeout reports a read that ended at its deadline.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// check is read's tail: the payload of resp, the response to cmd that
// the reader returned with err.
func (c *Client) check(resp Frame, err error, cmd uint8) ([]byte, error) {
	if err != nil {
		return nil, c.brokenErr(err)
	}
	if resp.Seq != c.seq {
		c.broken = true
		return nil, fmt.Errorf("ipmi: sequence mismatch: sent %d got %d", c.seq, resp.Seq)
	}
	if resp.NetFn != NetFnOEMResponse || resp.Cmd != cmd {
		c.broken = true
		return nil, fmt.Errorf("ipmi: mismatched response netfn=%#x cmd=%#x", resp.NetFn, resp.Cmd)
	}
	if len(resp.Payload) < 1 {
		c.broken = true
		return nil, io.ErrUnexpectedEOF
	}
	if cc := resp.Payload[0]; cc != CCOK {
		// A completion-code failure is a well-formed exchange; the
		// stream stays aligned and usable.
		if cc == CCStaleEpoch {
			return nil, ErrStaleEpoch
		}
		return nil, ccError(cc)
	}
	return resp.Payload[1:], nil
}

// ccError is a non-OK completion code, other than CCStaleEpoch, that a
// BMC answered an exchange with.
type ccError byte

func (cc ccError) Error() string { return fmt.Sprintf("ipmi: completion code %#x", byte(cc)) }

// brokenErr marks the stream broken after an I/O failure and picks the
// error the caller should see. If the failure was induced by Close
// yanking the socket out from under an in-flight exchange, the
// deterministic answer is ErrBroken — not whichever "use of closed
// connection" or reset error the race happened to surface.
func (c *Client) brokenErr(err error) error {
	c.broken = true
	if c.closed.Load() {
		return ErrBroken
	}
	return err
}

// query runs one payload-less command and decodes its response before
// releasing c.mu (see Client's buffer-ownership rule).
func query[T any](c *Client, cmd uint8, decode func([]byte) (T, error)) (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return get(c, cmd, decode)
}

// get is query's body. c.mu must be held.
func get[T any](c *Client, cmd uint8, decode func([]byte) (T, error)) (T, error) {
	b, err := c.exchange(c.request(cmd))
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(b)
}

// GetDeviceID fetches the node's identity.
func (c *Client) GetDeviceID() (DeviceInfo, error) {
	return query(c, CmdGetDeviceID, DecodeDeviceInfo)
}

// GetPowerReading fetches current and windowed-average power.
func (c *Client) GetPowerReading() (PowerReading, error) {
	return query(c, CmdGetPowerReading, DecodePowerReading)
}

// SetPowerLimit pushes a capping policy to the BMC: SendPowerLimit
// and AwaitPowerLimit under one hold of the client. An enabled limit
// the wire cannot carry is refused before any I/O.
func (c *Client) SetPowerLimit(lim PowerLimit) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.sendLimit(lim); err != nil {
		return err
	}
	_, err := c.await(CmdSetPowerLimit)
	return err
}

// SendPowerLimit writes a SetPowerLimit request and arms its deadline
// without reading the ack, so the caller can send to other BMCs before
// it collects any; AwaitPowerLimit completes the exchange. An enabled
// limit the wire cannot carry is refused before any I/O.
func (c *Client) SendPowerLimit(lim PowerLimit) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendLimit(lim)
}

// AwaitPowerLimit reads and checks the ack of the push SendPowerLimit
// sent, within the deadline armed at send. While a status read is in
// flight instead it fails with ErrPushInFlight and reads nothing.
func (c *Client) AwaitPowerLimit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.await(CmdSetPowerLimit)
	return err
}

// sendLimit is SendPowerLimit's body. c.mu must be held.
func (c *Client) sendLimit(lim PowerLimit) error {
	if err := checkLimit(lim); err != nil {
		return err
	}
	return c.send(appendPowerLimit(c.request(CmdSetPowerLimit), lim))
}

// GetPowerLimit fetches the active policy.
func (c *Client) GetPowerLimit() (PowerLimit, error) {
	return query(c, CmdGetPowerLimit, DecodePowerLimit)
}

// GetPStateInfo fetches DVFS state.
func (c *Client) GetPStateInfo() (PStateInfo, error) {
	return query(c, CmdGetPStateInfo, DecodePStateInfo)
}

// GetGatingLevel fetches the sub-DVFS gating ladder position.
func (c *Client) GetGatingLevel() (int, error) {
	return query(c, CmdGetGatingLevel, decodeGating)
}

func decodeGating(b []byte) (int, error) {
	if len(b) != 1 {
		return 0, fmt.Errorf("ipmi: gating payload length %d", len(b))
	}
	return int(b[0]), nil
}

// GetCapabilities fetches the platform's cap range.
func (c *Client) GetCapabilities() (Capabilities, error) {
	return query(c, CmdGetCapabilities, DecodeCapabilities)
}

// GetHealth fetches the BMC's defensive-controller status.
func (c *Client) GetHealth() (Health, error) {
	return query(c, CmdGetHealth, DecodeHealth)
}

// ReadStatus reads the node's power, P-state, gating level, applied
// limit and controller health in one GetStatus exchange: SendStatus and
// AwaitStatus under one hold of the client. A BMC that answers
// GetStatus with CCInvalidCommand predates the command: this client
// then reads the status as the five Get exchanges, in that order and up
// to the first failure, from then on (the refused exchange counts once
// as a failed request). While a push awaits its ack, ReadStatus fails
// with ErrPushInFlight and writes nothing.
func (c *Client) ReadStatus() (NodeStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.sendStatus(); err != nil {
		return NodeStatus{}, err
	}
	return c.awaitStatus()
}

// SendStatus writes a GetStatus request and arms its deadline without
// reading the response, so the caller can send to other BMCs before it
// reads any; AwaitStatus completes the read. Once the BMC has proved
// legacy (see ReadStatus), SendStatus sends nothing and AwaitStatus
// makes the five Get exchanges.
func (c *Client) SendStatus() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendStatus()
}

// AwaitStatus reads and checks the response to the GetStatus request
// SendStatus sent, within the deadline armed at send. A BMC that
// refuses the command turns the client legacy here, and this read is
// made as the five Get exchanges. While a push is in flight instead it
// fails with ErrPushInFlight and reads nothing.
func (c *Client) AwaitStatus() (NodeStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.awaitStatus()
}

// probeGrace is how long AwaitStatusBy reads once its bound has
// passed — the caller was busy awaiting other BMCs — so that an answer
// already on the connection is taken, while a BMC that has not answered
// costs the caller little.
const probeGrace = time.Millisecond

// AwaitStatusBy is AwaitStatus bounded to by, or to a short probe of
// the connection when by has passed. With no answer by then it fails
// with ErrStillAwaiting and leaves the read in flight, so a caller
// polling many BMCs can tell a BMC that has not answered by some time
// after its send from one whose answer merely waited to be read. A
// zero by, a bound past the request timeout, and a legacy BMC's five
// Get exchanges are not bounded.
func (c *Client) AwaitStatusBy(by time.Time) (NodeStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if by.IsZero() || c.legacy || c.awaiting != CmdGetStatus || c.broken {
		return c.awaitStatus()
	}
	if probe := time.Now().Add(probeGrace); by.Before(probe) {
		by = probe
	}
	if c.reqTimeout > 0 && !by.Before(clockBase.Add(c.due)) {
		return c.awaitStatus()
	}
	c.conn.SetReadDeadline(by)
	c.rearm = true
	resp, err := c.rd.next(c.conn)
	if isTimeout(err) && !c.closed.Load() {
		return NodeStatus{}, ErrStillAwaiting
	}
	c.awaiting = 0
	b, err := c.check(resp, err, CmdGetStatus)
	if err != nil {
		c.mFailures.Inc()
	}
	return c.decodeStatus(b, err)
}

// sendStatus is SendStatus's body. c.mu must be held.
func (c *Client) sendStatus() error {
	if c.legacy {
		return nil
	}
	return c.send(c.request(CmdGetStatus))
}

// awaitStatus is AwaitStatus's body. c.mu must be held.
func (c *Client) awaitStatus() (NodeStatus, error) {
	if c.legacy {
		return c.getStatus() // whose first send refuses while a push is in flight
	}
	return c.decodeStatus(c.await(CmdGetStatus))
}

// decodeStatus decodes the GetStatus response b that an await returned
// with err. A BMC that refused the command turns the client legacy, and
// the read is made as the five Get exchanges. c.mu must be held.
func (c *Client) decodeStatus(b []byte, err error) (NodeStatus, error) {
	if err == nil {
		return DecodeStatus(b)
	}
	if err != ccError(CCInvalidCommand) {
		return NodeStatus{}, err
	}
	c.legacy = true
	return c.getStatus()
}

// getStatus is a status read over the five Get exchanges. c.mu must be
// held.
func (c *Client) getStatus() (st NodeStatus, err error) {
	if st.Reading, err = get(c, CmdGetPowerReading, DecodePowerReading); err != nil {
		return NodeStatus{}, err
	}
	if st.PState, err = get(c, CmdGetPStateInfo, DecodePStateInfo); err != nil {
		return NodeStatus{}, err
	}
	if st.Gating, err = get(c, CmdGetGatingLevel, decodeGating); err != nil {
		return NodeStatus{}, err
	}
	if st.Limit, err = get(c, CmdGetPowerLimit, DecodePowerLimit); err != nil {
		return NodeStatus{}, err
	}
	if st.Health, err = get(c, CmdGetHealth, DecodeHealth); err != nil {
		return NodeStatus{}, err
	}
	return st, nil
}

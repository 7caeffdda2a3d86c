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
	// 16 bytes hold the longest response payload (completion code and a
	// fenced power limit, 14), so the payload is the one allocation.
	return Frame{
		Seq: req.Seq, NetFn: NetFnOEMResponse, Cmd: req.Cmd,
		Payload: s.respond(make([]byte, 0, 16), req),
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

// Client is a DCM-side connection to one BMC.
//
// Buffer ownership: the client builds every request in req and parses
// every response in place from rd's buffer, both owned by whoever holds
// mu. A response payload is therefore valid only until the next
// exchange on the connection, and every method decodes it before it
// releases mu.
type Client struct {
	mu         sync.Mutex
	conn       net.Conn
	seq        uint32
	reqTimeout time.Duration
	broken     bool
	closed     atomic.Bool
	req        []byte
	rd         frameReader

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
	return &Client{conn: conn, req: make([]byte, 0, inlineFrameLen)}
}

// SetRequestTimeout bounds each request/response exchange; zero
// disables the bound.
func (c *Client) SetRequestTimeout(d time.Duration) {
	c.mu.Lock()
	c.reqTimeout = d
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
// exchange. c.mu must be held.
func (c *Client) request(cmd uint8) []byte {
	c.seq++
	return beginFrame(c.req[:0], c.seq, NetFnOEM, cmd)
}

// exchange sends the request begun by request and returns the response
// payload after its completion code. The payload aliases the read
// buffer: decode it before releasing c.mu, which must be held.
func (c *Client) exchange(req []byte) ([]byte, error) {
	c.mRequests.Inc()
	b, err := c.roundTrip(req)
	if err != nil {
		c.mFailures.Inc()
	}
	return b, err
}

// roundTrip is exchange's body.
func (c *Client) roundTrip(req []byte) ([]byte, error) {
	if c.broken || c.closed.Load() {
		// A Close that lands between call and lock acquisition must read
		// as the deliberate teardown it is, not a fresh socket error.
		c.broken = true
		return nil, ErrBroken
	}
	if c.reqTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.reqTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	req, err := sealFrame(req)
	if err != nil {
		return nil, c.brokenErr(err)
	}
	c.req = req // keep the buffer a batch request grew
	if _, err := c.conn.Write(req); err != nil {
		return nil, c.brokenErr(err)
	}
	resp, err := c.rd.next(c.conn)
	if err != nil {
		return nil, c.brokenErr(err)
	}
	if resp.Seq != c.seq {
		c.broken = true
		return nil, fmt.Errorf("ipmi: sequence mismatch: sent %d got %d", c.seq, resp.Seq)
	}
	if cmd := req[8]; resp.NetFn != NetFnOEMResponse || resp.Cmd != cmd {
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
		return nil, fmt.Errorf("ipmi: completion code %#x", cc)
	}
	return resp.Payload[1:], nil
}

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

// SetPowerLimit pushes a capping policy to the BMC. An enabled limit
// the wire cannot carry is refused before any I/O.
func (c *Client) SetPowerLimit(lim PowerLimit) error {
	if err := checkLimit(lim); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.exchange(appendPowerLimit(c.request(CmdSetPowerLimit), lim))
	return err
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
	return query(c, CmdGetGatingLevel, func(b []byte) (int, error) {
		if len(b) != 1 {
			return 0, fmt.Errorf("ipmi: gating payload length %d", len(b))
		}
		return int(b[0]), nil
	})
}

// GetCapabilities fetches the platform's cap range.
func (c *Client) GetCapabilities() (Capabilities, error) {
	return query(c, CmdGetCapabilities, DecodeCapabilities)
}

// GetHealth fetches the BMC's defensive-controller status.
func (c *Client) GetHealth() (Health, error) {
	return query(c, CmdGetHealth, DecodeHealth)
}

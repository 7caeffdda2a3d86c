package ipmi

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"
)

// Loopback returns the wire path without a socket: a net.Conn whose
// Write opens the one request frame b holds and passes it to handle,
// and whose Read then returns the marshalled response. An error from
// handle fails the Write. The request's Payload aliases b, so handle
// must not keep it. Under NewClientConn it runs the whole client —
// framing, sequence and completion-code checks — against an in-process
// endpoint such as Server.Handle or Mux.Handle.
func Loopback(handle func(Frame) (Frame, error)) net.Conn {
	return &loopConn{handle: handle}
}

type loopConn struct {
	handle func(Frame) (Frame, error)
	out    []byte
	rd     bytes.Reader
}

func (c *loopConn) Write(b []byte) (int, error) {
	req, err := openWhole(b)
	if err != nil {
		return 0, err
	}
	resp, err := c.handle(req)
	if err != nil {
		return 0, err
	}
	c.out, err = sealFrame(append(beginFrame(c.out[:0], resp.Seq, resp.NetFn, resp.Cmd), resp.Payload...))
	c.rd.Reset(c.out)
	return len(b), err
}

// openWhole opens b, which must be exactly one frame, in place: the
// frame's Payload aliases b.
func openWhole(b []byte) (Frame, error) {
	if len(b) < headerLen {
		return Frame{}, io.ErrUnexpectedEOF
	}
	plen, err := payloadLen(b)
	if err != nil {
		return Frame{}, err
	}
	if n := headerLen + plen + 1; len(b) != n {
		return Frame{}, fmt.Errorf("ipmi: a %d-byte write is not one %d-byte frame", len(b), n)
	}
	return openFrame(b[:headerLen], b[headerLen:])
}

func (c *loopConn) Read(p []byte) (int, error)       { return c.rd.Read(p) }
func (c *loopConn) Close() error                     { return nil }
func (c *loopConn) LocalAddr() net.Addr              { return loopAddr{} }
func (c *loopConn) RemoteAddr() net.Addr             { return loopAddr{} }
func (c *loopConn) SetDeadline(time.Time) error      { return nil }
func (c *loopConn) SetReadDeadline(time.Time) error  { return nil }
func (c *loopConn) SetWriteDeadline(time.Time) error { return nil }

type loopAddr struct{}

func (loopAddr) Network() string { return "loopback" }
func (loopAddr) String() string  { return "loopback" }

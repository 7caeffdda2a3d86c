package ipmi

import (
	"bytes"
	"io"
	"net"
	"time"
)

// Loopback returns the wire path without a socket: a net.Conn whose
// Write passes each request frame in b, in order, to handle, and whose
// Read then returns the marshalled responses. An error from handle
// fails the Write, and no later frame of b reaches handle. A request's
// Payload aliases b, so handle must not keep it. Under NewClientConn it
// runs the whole client — framing, sequence and completion-code checks,
// the status burst — against an in-process endpoint such as
// Server.Handle or Mux.Handle.
func Loopback(handle func(Frame) (Frame, error)) net.Conn {
	return &loopConn{handle: handle}
}

type loopConn struct {
	handle func(Frame) (Frame, error)
	out    []byte
	rd     bytes.Reader
}

func (c *loopConn) Write(b []byte) (int, error) {
	c.out = c.out[:0]
	for rest := b; len(rest) > 0; {
		req, tail, err := splitFrame(rest)
		if err != nil {
			return 0, err
		}
		resp, err := c.handle(req)
		if err != nil {
			return 0, err
		}
		at := len(c.out)
		if c.out, err = sealFrame(append(beginFrame(c.out, resp.Seq, resp.NetFn, resp.Cmd), resp.Payload...), at); err != nil {
			return 0, err
		}
		rest = tail
	}
	c.rd.Reset(c.out)
	return len(b), nil
}

// splitFrame opens the frame at the head of b in place: its Payload
// aliases b. It returns the frame and the bytes after it.
func splitFrame(b []byte) (Frame, []byte, error) {
	if len(b) < headerLen {
		return Frame{}, nil, io.ErrUnexpectedEOF
	}
	plen, err := payloadLen(b)
	if err != nil {
		return Frame{}, nil, err
	}
	end := headerLen + plen + 1
	if len(b) < end {
		return Frame{}, nil, io.ErrUnexpectedEOF
	}
	f, err := openFrame(b[:headerLen], b[headerLen:end])
	return f, b[end:], err
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

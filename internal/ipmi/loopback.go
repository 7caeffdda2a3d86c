package ipmi

import (
	"bytes"
	"net"
	"time"
)

// Loopback returns the wire path without a socket: a net.Conn whose
// Write decodes one request frame and passes it to handle, and whose
// Read then returns the marshalled response. An error from handle fails
// the Write. Under NewClientConn it runs the whole client — framing,
// sequence and completion-code checks — against an in-process endpoint
// such as Server.Handle or Mux.Handle.
func Loopback(handle func(Frame) (Frame, error)) net.Conn {
	return &loopConn{handle: handle}
}

type loopConn struct {
	handle func(Frame) (Frame, error)
	out    []byte
	rd     bytes.Reader
}

func (c *loopConn) Write(b []byte) (int, error) {
	req, err := ReadFrame(bytes.NewReader(b))
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

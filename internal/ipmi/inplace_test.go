package ipmi

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"
)

// Helpers the pre-existing tests call; neither has a non-test caller
// since frames are handled in place.

// ccOf extracts a response frame's completion code.
func ccOf(f Frame) byte {
	if len(f.Payload) < 1 {
		return CCUnspecified
	}
	return f.Payload[0]
}

// call performs one raw exchange and copies the response payload out
// from under the client's read buffer.
func (c *Client) call(cmd uint8, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := c.exchange(append(c.request(cmd), payload...))
	return bytes.Clone(b), err
}

// nopConn is the part of a net.Conn the in-memory conns below leave
// inert.
type nopConn struct{}

func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// memConn is an in-memory net.Conn over one Server, built from the
// package's own in-place pieces so that nothing in it allocates: Write
// answers the request frame into out, Read hands it back.
type memConn struct {
	nopConn
	srv   *Server
	out   []byte
	off   int
	reads int
}

func (c *memConn) Write(b []byte) (int, error) {
	plen, err := payloadLen(b)
	if err != nil {
		return 0, err
	}
	if len(b) != headerLen+plen+1 {
		return 0, errors.New("memConn: a write must be one whole frame")
	}
	req, err := openFrame(b[:headerLen], b[headerLen:])
	if err != nil {
		return 0, err
	}
	c.out, err = sealFrame(c.srv.respond(beginFrame(c.out[:0], req.Seq, NetFnOEMResponse, req.Cmd), req))
	c.off = 0
	return len(b), err
}

func (c *memConn) Read(p []byte) (int, error) {
	c.reads++
	if c.off == len(c.out) {
		return 0, io.EOF
	}
	n := copy(p, c.out[c.off:])
	c.off += n
	return n, nil
}

// singleNodeCommands runs each of the eight single-node commands once.
func singleNodeCommands(t *testing.T, c *Client) {
	_, e1 := c.GetDeviceID()
	_, e2 := c.GetPowerReading()
	e3 := c.SetPowerLimit(PowerLimit{Enabled: true, CapWatts: 140, Epoch: 3})
	lim, e4 := c.GetPowerLimit()
	_, e5 := c.GetPStateInfo()
	_, e6 := c.GetGatingLevel()
	_, e7 := c.GetCapabilities()
	_, e8 := c.GetHealth()
	if err := errors.Join(e1, e2, e3, e4, e5, e6, e7, e8); err != nil {
		t.Fatal(err)
	}
	if !lim.Enabled || lim.CapWatts != 140 {
		t.Fatalf("limit read back as %+v", lim)
	}
}

// TestClientCommandsAllocateNothing holds the client half of the
// tentpole: once its two buffers exist, every single-node command is
// built, sent, read and decoded without touching the heap, and every
// response arrives in one Read.
func TestClientCommandsAllocateNothing(t *testing.T) {
	conn := &memConn{srv: NewServer(&fakeControl{}), out: make([]byte, 0, inlineFrameLen)}
	c := NewClientConn(conn)
	c.SetRequestTimeout(time.Second) // take the deadline path too
	singleNodeCommands(t, c)

	if n := testing.AllocsPerRun(200, func() { singleNodeCommands(t, c) }); n != 0 {
		t.Errorf("eight commands allocated %v times, want 0", n)
	}
	conn.reads = 0
	singleNodeCommands(t, c)
	if conn.reads != 8 {
		t.Errorf("eight responses took %d reads, want one each", conn.reads)
	}
	if got := cap(c.req) + len(c.rd.buf); got != 2*inlineFrameLen {
		t.Errorf("an idle client holds %d buffer bytes, want %d", got, 2*inlineFrameLen)
	}
	if total := int(unsafe.Sizeof(Client{})) + 2*inlineFrameLen; total > 256 {
		t.Errorf("an idle client is %d bytes resident, want at most 256", total)
	}
}

// scriptConn feeds serveConn a fixed byte stream and discards what it
// writes.
type scriptConn struct {
	nopConn
	in     bytes.Reader
	writes int
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(b []byte) (int, error) { c.writes++; return len(b), nil }

// TestServeConnTurnAllocatesNothing holds the server half: a connection
// end costs its two buffers however many request→response turns it
// serves. (serveConn runs here on the test's goroutine, to EOF.)
func TestServeConnTurnAllocatesNothing(t *testing.T) {
	srv := NewServer(&fakeControl{})
	var one []byte
	for _, req := range []Frame{
		{Seq: 1, NetFn: NetFnOEM, Cmd: CmdGetPowerReading},
		{Seq: 2, NetFn: NetFnOEM, Cmd: CmdSetPowerLimit, Payload: EncodePowerLimit(PowerLimit{Enabled: true, CapWatts: 150, Epoch: 9})},
		{Seq: 3, NetFn: NetFnOEM, Cmd: CmdGetPowerLimit},
		{Seq: 4, NetFn: NetFnOEM, Cmd: CmdGetHealth},
		{Seq: 5, NetFn: 0x06, Cmd: CmdGetDeviceID},
	} {
		b, err := req.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		one = append(one, b...)
	}
	serve := func(stream []byte) (allocs float64, writes int) {
		conn := &scriptConn{}
		allocs = testing.AllocsPerRun(50, func() {
			conn.in.Reset(stream)
			conn.writes = 0
			srv.wg.Add(1)
			srv.serveConn(conn)
		})
		return allocs, conn.writes
	}
	few, n := serve(one)
	if n != 5 {
		t.Fatalf("5 requests got %d responses", n)
	}
	many, n := serve(bytes.Repeat(one, 40))
	if n != 200 {
		t.Fatalf("200 requests got %d responses", n)
	}
	if few != many || few > 2 {
		t.Errorf("a connection serving 5 turns allocated %v times and one serving 200 %v; want the same two buffers", few, many)
	}
}

// TestFrameReaderKeepsPipelinedBytesAndGrowsOnce covers what one Read
// per frame must not lose: bytes read past a frame belong to the next,
// and a frame larger than the inline buffer (a full batch) grows the
// buffer once, to the largest frame there is.
func TestFrameReaderKeepsPipelinedBytesAndGrowsOnce(t *testing.T) {
	ids := make([]uint32, MaxBatchEntries)
	batch, err := EncodeBatchPollRequest(ids)
	if err != nil {
		t.Fatal(err)
	}
	frames := []Frame{
		{Seq: 1, NetFn: NetFnOEM, Cmd: CmdGetPowerReading},
		{Seq: 2, NetFn: NetFnOEM, Cmd: CmdGetHealth, Payload: []byte{1, 2, 3}},
		{Seq: 3, NetFn: NetFnOEM, Cmd: CmdBatchPoll, Payload: batch},
		{Seq: 4, NetFn: NetFnOEM, Cmd: CmdBatchSet, Payload: bytes.Repeat([]byte{7}, MaxPayload)},
		{Seq: 5, NetFn: NetFnOEM, Cmd: CmdGetGatingLevel, Payload: []byte{9}},
	}
	var stream []byte
	for _, f := range frames {
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, b...)
	}
	var rd frameReader
	src := bytes.NewReader(stream)
	for i, want := range frames {
		got, err := rd.next(src)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Cmd != want.Cmd || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
		if size := len(rd.buf); i < 2 && size != inlineFrameLen || i >= 2 && size != maxFrameLen {
			t.Fatalf("after frame %d the buffer is %d bytes", i, size)
		}
	}
	if _, err := rd.next(src); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// FuzzFrameReader feeds arbitrary bytes to the in-place reader — whole,
// split at every offset, one byte per Read, and with the final bytes
// arriving beside the EOF — and to ReadFrame. Both must accept the same
// sequence of frames, field for field, and then both must stop.
func FuzzFrameReader(f *testing.F) {
	one, _ := Frame{Seq: 9, NetFn: NetFnOEM, Cmd: CmdGetPowerReading, Payload: []byte{1, 2}}.Marshal()
	big, _ := Frame{Seq: 10, NetFn: NetFnOEMResponse, Cmd: CmdBatchPoll, Payload: bytes.Repeat([]byte{0xA5}, 300)}.Marshal()
	f.Add(one)
	f.Add(append(append(append([]byte{}, one...), big...), one...))
	f.Add(one[:len(one)-1])
	f.Add([]byte{})
	f.Add([]byte{'N', 'C', 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var want []Frame
		ref := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(ref)
			if err != nil {
				break
			}
			want = append(want, fr)
		}
		check := func(how string, src io.Reader) {
			var rd frameReader
			for i := 0; ; i++ {
				got, err := rd.next(src)
				if err != nil {
					if i != len(want) {
						t.Fatalf("%s: stopped after %d frames (%v), ReadFrame accepts %d", how, i, err, len(want))
					}
					return
				}
				if i >= len(want) {
					t.Fatalf("%s: accepted frame %d (%+v), ReadFrame accepts only %d", how, i, got, len(want))
				}
				if w := want[i]; got.Seq != w.Seq || got.NetFn != w.NetFn || got.Cmd != w.Cmd || !bytes.Equal(got.Payload, w.Payload) {
					t.Fatalf("%s: frame %d = %+v, ReadFrame gives %+v", how, i, got, w)
				}
			}
		}
		check("whole", bytes.NewReader(data))
		check("one byte per read", iotest.OneByteReader(bytes.NewReader(data)))
		check("data with EOF", iotest.DataErrReader(bytes.NewReader(data)))
		for cut := 1; cut < len(data); cut++ {
			check("split", io.MultiReader(bytes.NewReader(data[:cut]), bytes.NewReader(data[cut:])))
		}
	})
}

// distinctControl answers every query with values no other query uses,
// so a payload decoded from another exchange's bytes cannot pass.
type distinctControl struct{ fakeControl }

func (*distinctControl) PowerReading() PowerReading {
	return PowerReading{CurrentWatts: 111.11, AverageWatts: 222.22}
}
func (*distinctControl) Capabilities() Capabilities {
	return Capabilities{MinCapWatts: 333.33, MaxCapWatts: 444.44, Tier: TierHigh}
}

// TestSharedClientNeverSeesAnotherExchangesPayload shares one client
// between two goroutines, as the priority lane and hedged pushes can.
// Response payloads live in the connection's one read buffer; were one
// decoded after c.mu is released, the other goroutine's next exchange
// would overwrite it — a wrong value here, and a data race under -race.
func TestSharedClientNeverSeesAnotherExchangesPayload(t *testing.T) {
	srv := NewServer(&distinctControl{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		want := PowerReading{CurrentWatts: 111.11, AverageWatts: 222.22}
		for i := 0; i < rounds; i++ {
			if got, err := c.GetPowerReading(); err != nil || got != want {
				t.Errorf("GetPowerReading = %+v, %v", got, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		want := Capabilities{MinCapWatts: 333.33, MaxCapWatts: 444.44, Tier: TierHigh}
		for i := 0; i < rounds; i++ {
			if got, err := c.GetCapabilities(); err != nil || got != want {
				t.Errorf("GetCapabilities = %+v, %v", got, err)
				return
			}
		}
	}()
	wg.Wait()
}

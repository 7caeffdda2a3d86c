package ipmi

import (
	"errors"
	"math"
	"testing"
)

// TestLoopbackRoundTripsEveryCommand runs the client over a loopback
// into a Server: every single-node command, then a full batch frame in
// each direction through a Mux.
func TestLoopbackRoundTripsEveryCommand(t *testing.T) {
	srv := NewServer(&fakeControl{})
	c := NewClientConn(Loopback(func(req Frame) (Frame, error) { return srv.Handle(req), nil }))
	singleNodeCommands(t, c)
	if di, err := c.GetDeviceID(); err != nil || di != (&fakeControl{}).DeviceInfo() {
		t.Errorf("GetDeviceID = %+v, %v", di, err)
	}

	// A 24-entry batch response is larger than the client's inline read
	// buffer, so it also takes the buffer-growing read.
	mux := NewMux()
	ids := make([]uint32, MaxBatchEntries)
	entries := make([]BatchSetEntry, MaxBatchEntries)
	for i := range ids {
		ids[i] = uint32(i)
		mux.Register(ids[i], NewServer(&fakeControl{}))
		entries[i] = BatchSetEntry{ID: ids[i], Limit: PowerLimit{Enabled: true, CapWatts: 100 + float64(i), Epoch: 2}}
	}
	frames := 0
	bc := NewClientConn(Loopback(func(req Frame) (Frame, error) {
		frames++
		return mux.Handle(req), nil
	}))
	sets, err := bc.BatchSet(entries)
	if err != nil {
		t.Fatal(err)
	}
	polls, err := bc.BatchPoll(ids)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 2 {
		t.Errorf("two full batches took %d frames, want 2", frames)
	}
	for i := range ids {
		if sets[i] != (BatchSetResult{ID: ids[i], CC: CCOK}) {
			t.Errorf("set %d = %+v", i, sets[i])
		}
		want := PowerLimit{Enabled: true, CapWatts: 100 + float64(i)}
		if p := polls[i]; p.ID != ids[i] || p.CC != CCOK || p.Reading.CurrentWatts != 151.2 || p.Limit != want {
			t.Errorf("poll %d = %+v", i, p)
		}
	}
}

// TestLoopbackHandlerErrorReachesCaller holds the contract fault
// injection builds on: an error from the handler fails the exchange and
// comes back from the client unchanged.
func TestLoopbackHandlerErrorReachesCaller(t *testing.T) {
	lost := errors.New("response lost")
	c := NewClientConn(Loopback(func(Frame) (Frame, error) { return Frame{}, lost }))
	if _, err := c.GetPowerReading(); !errors.Is(err, lost) {
		t.Errorf("GetPowerReading error = %v, want %v", err, lost)
	}
	if err := c.SetPowerLimit(PowerLimit{Enabled: true, CapWatts: 140}); err == nil {
		t.Error("push over a failed link succeeded")
	}
}

// TestClientRefusesWattsTheWireCannotCarry: the centiwatt field is a
// uint32, so NaN, ±Inf, negative and oversized enabled caps would wrap
// into some other cap. They must fail before any frame is sent.
func TestClientRefusesWattsTheWireCannotCarry(t *testing.T) {
	srv := NewServer(&fakeControl{})
	frames := 0
	c := NewClientConn(Loopback(func(req Frame) (Frame, error) {
		frames++
		return srv.Handle(req), nil
	}))
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5, 5e7, MaxWireWatts + 0.01} {
		lim := PowerLimit{Enabled: true, CapWatts: w}
		if err := c.SetPowerLimit(lim); err == nil {
			t.Errorf("SetPowerLimit(%v W) succeeded", w)
		}
		batch := []BatchSetEntry{{ID: 1, Limit: lim}}
		if _, err := c.BatchSet(batch); err == nil {
			t.Errorf("BatchSet(%v W) succeeded", w)
		}
		if _, err := EncodeBatchSetRequest(batch); err == nil {
			t.Errorf("EncodeBatchSetRequest(%v W) succeeded", w)
		}
	}
	if frames != 0 {
		t.Errorf("refused limits sent %d frames", frames)
	}
	// Both ends of the range still go out, and so does a disabled limit,
	// whose watts the node ignores.
	for _, lim := range []PowerLimit{{CapWatts: -1}, {Enabled: true}, {Enabled: true, CapWatts: MaxWireWatts}} {
		if err := c.SetPowerLimit(lim); err != nil {
			t.Errorf("SetPowerLimit(%+v): %v", lim, err)
		}
	}
	if lim, err := c.GetPowerLimit(); err != nil || lim != (PowerLimit{Enabled: true, CapWatts: MaxWireWatts}) {
		t.Errorf("largest cap read back as %+v, %v", lim, err)
	}
}

// marshalAll concatenates frames' wire forms.
func marshalAll(t *testing.T, frames ...Frame) []byte {
	t.Helper()
	var b []byte
	for _, f := range frames {
		w, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, w...)
	}
	return b
}

// TestLoopbackRefusesAllButOneFrame: a Write must hold exactly one
// frame. Two frames, or a frame with bytes missing, fail the Write
// before anything reaches the handler.
func TestLoopbackRefusesAllButOneFrame(t *testing.T) {
	calls := 0
	conn := Loopback(func(req Frame) (Frame, error) {
		calls++
		return Frame{Seq: req.Seq, NetFn: NetFnOEMResponse, Cmd: req.Cmd, Payload: []byte{CCOK}}, nil
	})
	req := Frame{Seq: 1, NetFn: NetFnOEM, Cmd: CmdGetHealth}
	one := marshalAll(t, req)
	for _, b := range [][]byte{marshalAll(t, req, req), one[:len(one)-1], one[:headerLen-1]} {
		if _, err := conn.Write(b); err == nil {
			t.Errorf("a %d-byte Write was accepted", len(b))
		}
	}
	if calls != 0 {
		t.Errorf("refused writes reached the handler %d times", calls)
	}
}

// TestLoopbackSingleFrameWriteAllocatesNothing: a request is opened in
// place, so a one-frame Write to a handler that allocates nothing
// allocates nothing either.
func TestLoopbackSingleFrameWriteAllocatesNothing(t *testing.T) {
	srv := NewServer(&fakeControl{})
	var payload []byte
	conn := Loopback(func(req Frame) (Frame, error) {
		payload = srv.respond(payload[:0], req)
		return Frame{Seq: req.Seq, NetFn: NetFnOEMResponse, Cmd: req.Cmd, Payload: payload}, nil
	})
	b := marshalAll(t, Frame{Seq: 1, NetFn: NetFnOEM, Cmd: CmdGetPowerReading})
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a one-frame Write allocated %v times, want 0", n)
	}
}

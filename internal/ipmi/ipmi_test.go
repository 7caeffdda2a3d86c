package ipmi

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Seq: 42, NetFn: NetFnOEM, Cmd: CmdGetPowerReading, Payload: []byte{1, 2, 3}}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || got.NetFn != f.NetFn || got.Cmd != f.Cmd || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip = %+v", got)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seq uint32, netfn, cmd uint8, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		fr := Frame{Seq: seq, NetFn: netfn, Cmd: cmd, Payload: payload}
		buf, err := fr.Marshal()
		if err != nil {
			return false
		}
		got, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			return false
		}
		return got.Seq == seq && got.NetFn == netfn && got.Cmd == cmd && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	f := Frame{Seq: 7, NetFn: NetFnOEM, Cmd: CmdGetDeviceID, Payload: []byte{9, 9}}
	buf, _ := f.Marshal()
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
			// Flipping a payload or header bit must break the checksum,
			// magic, version, or length check.
			t.Errorf("corruption at byte %d undetected", i)
		}
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	f := Frame{Payload: make([]byte, MaxPayload+1)}
	if _, err := f.Marshal(); err == nil {
		t.Error("oversized payload marshalled")
	}
}

func TestPayloadCodecs(t *testing.T) {
	di := DeviceInfo{DeviceID: 3, FirmwareMajor: 2, FirmwareMinor: 5, ManufacturerID: 0x000157, ProductID: 0x0B2D}
	got, err := DecodeDeviceInfo(EncodeDeviceInfo(di))
	if err != nil || got != di {
		t.Errorf("device info = %+v, %v", got, err)
	}
	pr := PowerReading{CurrentWatts: 153.37, AverageWatts: 149.5}
	gp, err := DecodePowerReading(EncodePowerReading(pr))
	if err != nil || gp != pr {
		t.Errorf("power reading = %+v, %v", gp, err)
	}
	pl := PowerLimit{Enabled: true, CapWatts: 137.25}
	gl, err := DecodePowerLimit(EncodePowerLimit(pl))
	if err != nil || gl != pl {
		t.Errorf("power limit = %+v, %v", gl, err)
	}
	ps := PStateInfo{Index: 15, Count: 16, FreqMHz: 1200}
	gps, err := DecodePStateInfo(EncodePStateInfo(ps))
	if err != nil || gps != ps {
		t.Errorf("pstate = %+v, %v", gps, err)
	}
	cap := Capabilities{MinCapWatts: 123.5, MaxCapWatts: 200}
	gc, err := DecodeCapabilities(EncodeCapabilities(cap))
	if err != nil || gc != cap {
		t.Errorf("capabilities = %+v, %v", gc, err)
	}
}

// TestCapabilitiesTierWire: the priority tier rides as the optional
// ninth capability byte; a legacy 8-byte payload from pre-tier
// firmware still decodes, with the tier defaulting to low.
func TestCapabilitiesTierWire(t *testing.T) {
	cap := Capabilities{MinCapWatts: 123.5, MaxCapWatts: 200, Tier: TierHigh}
	enc := EncodeCapabilities(cap)
	if len(enc) != 9 {
		t.Fatalf("encoded capabilities = %d bytes, want 9", len(enc))
	}
	gc, err := DecodeCapabilities(enc)
	if err != nil || gc != cap {
		t.Errorf("tiered capabilities = %+v, %v", gc, err)
	}
	legacy := enc[:8] // pre-tier firmware omits the tier byte
	gl, err := DecodeCapabilities(legacy)
	if err != nil {
		t.Fatalf("legacy 8-byte capabilities rejected: %v", err)
	}
	if gl.Tier != TierLow || gl.MinCapWatts != cap.MinCapWatts || gl.MaxCapWatts != cap.MaxCapWatts {
		t.Errorf("legacy decode = %+v, want tier low with cap range intact", gl)
	}
}

func TestCodecLengthChecks(t *testing.T) {
	if _, err := DecodeDeviceInfo([]byte{1}); err == nil {
		t.Error("short device info accepted")
	}
	if _, err := DecodePowerReading(nil); err == nil {
		t.Error("empty power reading accepted")
	}
	if _, err := DecodePowerLimit([]byte{1, 2}); err == nil {
		t.Error("short power limit accepted")
	}
	if _, err := DecodePStateInfo([]byte{1}); err == nil {
		t.Error("short pstate accepted")
	}
	if _, err := DecodeCapabilities([]byte{1}); err == nil {
		t.Error("short capabilities accepted")
	}
	if _, err := DecodeHealth([]byte{1}); err == nil {
		t.Error("short health accepted")
	}
	for _, h := range []Health{{}, {FailSafe: true}, {InfeasibleCap: true, SensorFaults: 42}} {
		got, err := DecodeHealth(EncodeHealth(h))
		if err != nil || got != h {
			t.Errorf("health round trip: %+v -> %+v, %v", h, got, err)
		}
	}
}

// fakeControl is a scripted NodeControl.
type fakeControl struct {
	mu    sync.Mutex
	limit PowerLimit
	fail  bool
}

func (f *fakeControl) DeviceInfo() DeviceInfo {
	return DeviceInfo{DeviceID: 1, FirmwareMajor: 1, ManufacturerID: 343, ProductID: 2861}
}
func (f *fakeControl) PowerReading() PowerReading {
	return PowerReading{CurrentWatts: 151.2, AverageWatts: 150.0}
}
func (f *fakeControl) SetPowerLimit(l PowerLimit) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errors.New("nope")
	}
	f.limit = l
	return nil
}
func (f *fakeControl) PowerLimit() PowerLimit {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.limit
}
func (f *fakeControl) PStateInfo() PStateInfo { return PStateInfo{Index: 3, Count: 16, FreqMHz: 2400} }
func (f *fakeControl) GatingLevel() int       { return 2 }
func (f *fakeControl) Capabilities() Capabilities {
	return Capabilities{MinCapWatts: 123, MaxCapWatts: 180}
}
func (f *fakeControl) Health() Health { return Health{FailSafe: true, SensorFaults: 7} }

func TestClientServerOverTCP(t *testing.T) {
	ctl := &fakeControl{}
	srv := NewServer(ctl)
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

	di, err := c.GetDeviceID()
	if err != nil || di.ProductID != 2861 {
		t.Errorf("GetDeviceID = %+v, %v", di, err)
	}
	pr, err := c.GetPowerReading()
	if err != nil || pr.CurrentWatts != 151.2 {
		t.Errorf("GetPowerReading = %+v, %v", pr, err)
	}
	if err := c.SetPowerLimit(PowerLimit{Enabled: true, CapWatts: 140}); err != nil {
		t.Errorf("SetPowerLimit: %v", err)
	}
	lim, err := c.GetPowerLimit()
	if err != nil || !lim.Enabled || lim.CapWatts != 140 {
		t.Errorf("GetPowerLimit = %+v, %v", lim, err)
	}
	ps, err := c.GetPStateInfo()
	if err != nil || ps.FreqMHz != 2400 {
		t.Errorf("GetPStateInfo = %+v, %v", ps, err)
	}
	g, err := c.GetGatingLevel()
	if err != nil || g != 2 {
		t.Errorf("GetGatingLevel = %d, %v", g, err)
	}
	caps, err := c.GetCapabilities()
	if err != nil || caps.MinCapWatts != 123 {
		t.Errorf("GetCapabilities = %+v, %v", caps, err)
	}
	h, err := c.GetHealth()
	if err != nil || !h.FailSafe || h.InfeasibleCap || h.SensorFaults != 7 {
		t.Errorf("GetHealth = %+v, %v", h, err)
	}
}

func TestServerErrorPaths(t *testing.T) {
	srv := NewServer(&fakeControl{fail: true})
	// Unknown command.
	resp := srv.Handle(Frame{NetFn: NetFnOEM, Cmd: 0x99})
	if resp.Payload[0] != CCInvalidCommand {
		t.Errorf("unknown command cc = %#x", resp.Payload[0])
	}
	// Wrong netfn.
	resp = srv.Handle(Frame{NetFn: 0x06, Cmd: CmdGetDeviceID})
	if resp.Payload[0] != CCInvalidCommand {
		t.Errorf("wrong netfn cc = %#x", resp.Payload[0])
	}
	// Bad payload.
	resp = srv.Handle(Frame{NetFn: NetFnOEM, Cmd: CmdSetPowerLimit, Payload: []byte{1}})
	if resp.Payload[0] != CCInvalidData {
		t.Errorf("bad payload cc = %#x", resp.Payload[0])
	}
	// Control rejection.
	resp = srv.Handle(Frame{NetFn: NetFnOEM, Cmd: CmdSetPowerLimit,
		Payload: EncodePowerLimit(PowerLimit{Enabled: true, CapWatts: 1})})
	if resp.Payload[0] != CCUnspecified {
		t.Errorf("rejected set cc = %#x", resp.Payload[0])
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := NewServer(&fakeControl{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				if _, err := c.GetPowerReading(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestClientOverPipe(t *testing.T) {
	// NewClientConn serves in-process transports (tests, embedding).
	srv := NewServer(&fakeControl{})
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		for {
			req, err := ReadFrame(b)
			if err != nil {
				return
			}
			buf, err := srv.Handle(req).Marshal()
			if err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	c := NewClientConn(a)
	pr, err := c.GetPowerReading()
	if err != nil || pr.AverageWatts != 150 {
		t.Errorf("pipe GetPowerReading = %+v, %v", pr, err)
	}
}

func TestClientErrorCompletionCodes(t *testing.T) {
	// A control that rejects SetPowerLimit surfaces as a client error.
	srv := NewServer(&fakeControl{fail: true})
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
	if err := c.SetPowerLimit(PowerLimit{Enabled: true, CapWatts: 1}); err == nil {
		t.Error("rejected SetPowerLimit returned no error")
	}
}

func TestClientSurvivesServerClose(t *testing.T) {
	srv := NewServer(&fakeControl{})
	addr, _ := srv.Listen("127.0.0.1:0")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GetDeviceID(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := c.GetDeviceID(); err == nil {
		t.Error("call after server close succeeded")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port succeeded")
	}
}

func TestListenOnBadAddress(t *testing.T) {
	srv := NewServer(&fakeControl{})
	if _, err := srv.Listen("256.0.0.1:99999"); err == nil {
		t.Error("Listen on invalid address succeeded")
	}
}

func TestListenAfterClose(t *testing.T) {
	srv := NewServer(&fakeControl{})
	srv.Close()
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after Close succeeded")
	}
}

// TestClientCloseIdempotent: crash-recovery drills and defer stacks
// close clients more than once; every call after the first must be a
// nil no-op, and calls after Close must fail rather than hang.
func TestClientCloseIdempotent(t *testing.T) {
	srv := NewServer(&fakeControl{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetDeviceID(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := c.GetDeviceID(); err == nil {
		t.Error("call on a closed client succeeded")
	}
}

package ipmi

import (
	"bytes"
	"testing"
)

// FuzzReadFrame hammers the wire decoder with arbitrary bytes: it must
// never panic, and anything it accepts must re-marshal to the same
// frame (decode∘encode = identity on the accepted set).
func FuzzReadFrame(f *testing.F) {
	seed, _ := Frame{Seq: 9, NetFn: NetFnOEM, Cmd: CmdGetPowerReading, Payload: []byte{1, 2}}.Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{'N', 'C', 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		out, err := fr.Marshal()
		if err != nil {
			t.Fatalf("accepted frame fails to marshal: %v", err)
		}
		back, err := ReadFrame(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Seq != fr.Seq || back.NetFn != fr.NetFn || back.Cmd != fr.Cmd ||
			!bytes.Equal(back.Payload, fr.Payload) {
			t.Fatalf("round trip mutated frame: %+v vs %+v", back, fr)
		}
	})
}

// FuzzDecodePowerLimit checks the payload codec never panics and
// accepted values round-trip.
func FuzzDecodePowerLimit(f *testing.F) {
	f.Add(EncodePowerLimit(PowerLimit{Enabled: true, CapWatts: 140}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := DecodePowerLimit(data)
		if err != nil {
			return
		}
		got, err := DecodePowerLimit(EncodePowerLimit(pl))
		if err != nil || got != pl {
			t.Fatalf("round trip: %+v vs %+v (%v)", got, pl, err)
		}
	})
}

// FuzzPayloadCodecs drives every remaining payload decoder with the
// same arbitrary bytes: none may panic, and any value a decoder
// accepts must survive its encode∘decode round trip.
func FuzzPayloadCodecs(f *testing.F) {
	f.Add(EncodeDeviceInfo(DeviceInfo{DeviceID: 0x20, ManufacturerID: 343, ProductID: 2861}))
	f.Add(EncodePowerReading(PowerReading{CurrentWatts: 157.3, AverageWatts: 151.2}))
	f.Add(EncodePStateInfo(PStateInfo{Index: 3, Count: 16, FreqMHz: 2400}))
	f.Add(EncodeCapabilities(Capabilities{MinCapWatts: 123, MaxCapWatts: 180}))
	f.Add(EncodeHealth(Health{FailSafe: true, SensorFaults: 7, InfeasibleCap: true}))
	status := NodeStatus{
		Reading: PowerReading{CurrentWatts: 151.2, AverageWatts: 150},
		PState:  PStateInfo{Index: 3, Count: 16, FreqMHz: 2400},
		Gating:  2,
		Health:  Health{SensorFaults: 7},
	}
	status.Limit = PowerLimit{Enabled: true, CapWatts: 140}
	f.Add(EncodeStatus(status))
	status.Limit.Epoch = 12
	f.Add(EncodeStatus(status))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 9))

	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := DecodeDeviceInfo(data); err == nil {
			if got, err := DecodeDeviceInfo(EncodeDeviceInfo(d)); err != nil || got != d {
				t.Fatalf("device info round trip: %+v vs %+v (%v)", got, d, err)
			}
		}
		if p, err := DecodePowerReading(data); err == nil {
			if got, err := DecodePowerReading(EncodePowerReading(p)); err != nil || got != p {
				t.Fatalf("power reading round trip: %+v vs %+v (%v)", got, p, err)
			}
		}
		if p, err := DecodePStateInfo(data); err == nil {
			if got, err := DecodePStateInfo(EncodePStateInfo(p)); err != nil || got != p {
				t.Fatalf("pstate round trip: %+v vs %+v (%v)", got, p, err)
			}
		}
		if c, err := DecodeCapabilities(data); err == nil {
			if got, err := DecodeCapabilities(EncodeCapabilities(c)); err != nil || got != c {
				t.Fatalf("capabilities round trip: %+v vs %+v (%v)", got, c, err)
			}
		}
		if h, err := DecodeHealth(data); err == nil {
			if got, err := DecodeHealth(EncodeHealth(h)); err != nil || got != h {
				t.Fatalf("health round trip: %+v vs %+v (%v)", got, h, err)
			}
		}
		if st, err := DecodeStatus(data); err == nil {
			if got, err := DecodeStatus(EncodeStatus(st)); err != nil || got != st {
				t.Fatalf("status round trip: %+v vs %+v (%v)", got, st, err)
			}
		}
	})
}

// FuzzServerHandle throws arbitrary request frames at the dispatch
// table. Whatever arrives, the server must answer — never panic — with
// a well-formed response frame: marshalable, re-readable, echoing the
// request Seq, carrying the response NetFn and at least a completion
// code.
func FuzzServerHandle(f *testing.F) {
	f.Add(uint32(1), uint8(NetFnOEM), uint8(CmdGetPowerReading), []byte{})
	f.Add(uint32(2), uint8(NetFnOEM), uint8(CmdSetPowerLimit),
		EncodePowerLimit(PowerLimit{Enabled: true, CapWatts: 140}))
	f.Add(uint32(3), uint8(NetFnOEM), uint8(CmdSetPowerLimit), []byte{1, 2})
	f.Add(uint32(4), uint8(0x00), uint8(CmdGetDeviceID), []byte{})
	f.Add(uint32(5), uint8(NetFnOEM), uint8(0xEE), bytes.Repeat([]byte{0xA5}, 32))
	f.Add(uint32(6), uint8(NetFnOEM), uint8(CmdGetStatus), []byte{})

	srv := NewServer(&fakeControl{})
	f.Fuzz(func(t *testing.T, seq uint32, netfn, cmd uint8, payload []byte) {
		resp := srv.Handle(Frame{Seq: seq, NetFn: netfn, Cmd: cmd, Payload: payload})
		if resp.Seq != seq {
			t.Fatalf("response seq %d for request %d", resp.Seq, seq)
		}
		if resp.NetFn != NetFnOEMResponse {
			t.Fatalf("response netfn %#x", resp.NetFn)
		}
		if len(resp.Payload) < 1 {
			t.Fatal("response without completion code")
		}
		out, err := resp.Marshal()
		if err != nil {
			t.Fatalf("response does not marshal: %v", err)
		}
		back, err := ReadFrame(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("response does not re-read: %v", err)
		}
		if back.Seq != seq || back.Cmd != resp.Cmd {
			t.Fatalf("response mutated on the wire: %+v vs %+v", back, resp)
		}
	})
}

// Package ipmi implements the out-of-band management protocol between
// Intel Data Center Manager and a node's BMC, in the architecture of
// Section II-A of the paper: DCM talks to each Baseboard Management
// Controller over the BMC's dedicated NIC, without involving the host
// operating system.
//
// The wire format is a simplified IPMI-style binary framing: a fixed
// header with sequence number, network function and command codes, a
// length-prefixed payload, and a two's-complement checksum. Command
// numbers follow the Intel Node Manager OEM extension style (power
// reading, power limit, capability discovery).
package ipmi

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Protocol constants.
const (
	magic0  = 'N'
	magic1  = 'C'
	version = 1

	// NetFnOEM is the network function used for the power-management
	// command set (Intel NM uses an OEM netFn).
	NetFnOEM = 0x2E
	// NetFnOEMResponse marks response frames.
	NetFnOEMResponse = 0x2F

	// MaxPayload bounds frame payloads; management traffic is tiny.
	MaxPayload = 512
)

// Command codes.
const (
	CmdGetDeviceID     = 0x01
	CmdGetPowerReading = 0x02
	CmdSetPowerLimit   = 0x03
	CmdGetPowerLimit   = 0x04
	CmdGetPStateInfo   = 0x05
	CmdGetGatingLevel  = 0x06
	CmdGetCapabilities = 0x07
	CmdGetHealth       = 0x08
	// CmdGetStatus reads what a poll needs — power reading, P-state,
	// gating level, controller health and applied limit — in one
	// exchange. 0x09 and 0x0A are the batch commands.
	CmdGetStatus = 0x0B
)

// Completion codes (subset of IPMI's, plus one OEM extension).
const (
	CCOK             = 0x00
	CCInvalidCommand = 0xC1
	CCInvalidData    = 0xCC
	CCUnspecified    = 0xFF
	// CCStaleEpoch (OEM) rejects a SetPowerLimit whose fencing epoch is
	// older than one this BMC has already honoured: the writer lost the
	// leadership lease and must stop actuating.
	CCStaleEpoch = 0xD5
)

// Frame is one protocol data unit.
type Frame struct {
	Seq     uint32
	NetFn   uint8
	Cmd     uint8
	Payload []byte
}

// header layout: magic(2) version(1) seq(4) netfn(1) cmd(1) len(2).
const headerLen = 11

// maxFrameLen is the longest frame on the wire: header, a MaxPayload
// payload and the checksum byte.
const maxFrameLen = headerLen + MaxPayload + 1

// sum adds b's bytes mod 256. IPMI's two's-complement checksum makes
// the sum over a whole frame, checksum byte included, zero.
func sum(b []byte) byte {
	var s byte
	for _, c := range b {
		s += c
	}
	return s
}

// beginFrame appends a frame header to b with the payload length left
// zero: the caller appends the payload, then sealFrame fills the length
// in. b must be empty, so the header sits at b[0].
func beginFrame(b []byte, seq uint32, netFn, cmd uint8) []byte {
	b = append(b, magic0, magic1, version)
	b = binary.BigEndian.AppendUint32(b, seq)
	return append(b, netFn, cmd, 0, 0)
}

// sealFrame completes the frame begun at b[0]: it writes the payload
// length into the header and appends the checksum.
func sealFrame(b []byte) ([]byte, error) {
	plen := len(b) - headerLen
	if plen > MaxPayload {
		return nil, fmt.Errorf("ipmi: payload %d exceeds max %d", plen, MaxPayload)
	}
	binary.BigEndian.PutUint16(b[9:], uint16(plen))
	return append(b, -sum(b)), nil
}

// Marshal encodes f for the wire.
func (f Frame) Marshal() ([]byte, error) {
	b := make([]byte, 0, headerLen+len(f.Payload)+1)
	return sealFrame(append(beginFrame(b, f.Seq, f.NetFn, f.Cmd), f.Payload...))
}

// payloadLen validates a frame header — magic, version and the payload
// bound — and returns the payload length it announces.
func payloadLen(hdr []byte) (int, error) {
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, fmt.Errorf("ipmi: bad magic %#x %#x", hdr[0], hdr[1])
	}
	if hdr[2] != version {
		return 0, fmt.Errorf("ipmi: unsupported version %d", hdr[2])
	}
	plen := binary.BigEndian.Uint16(hdr[9:])
	if plen > MaxPayload {
		return 0, fmt.Errorf("ipmi: payload length %d exceeds max", plen)
	}
	return int(plen), nil
}

// openFrame verifies the checksum that ends body (payload, then the
// checksum byte) against the already validated header and returns the
// frame, its Payload aliasing body.
func openFrame(hdr, body []byte) (Frame, error) {
	plen := len(body) - 1
	if s := sum(hdr) + sum(body); s != 0 {
		return Frame{}, fmt.Errorf("ipmi: checksum mismatch: got %#x want %#x", body[plen], body[plen]-s)
	}
	return Frame{
		Seq:     binary.BigEndian.Uint32(hdr[3:]),
		NetFn:   hdr[7],
		Cmd:     hdr[8],
		Payload: body[:plen:plen],
	}, nil
}

// ReadFrame decodes one frame from r, verifying magic, version, bounds
// and checksum. It reads exactly the frame's bytes and the frame owns
// its payload; connection ends that read frame after frame use a
// frameReader instead.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	plen, err := payloadLen(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	body := make([]byte, plen+1)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, err
	}
	return openFrame(hdr[:], body)
}

// frameReader reads frames in place from one connection end through a
// buffer it owns. The buffer starts at inlineFrameLen, which holds every
// single-node frame, so an ordinary frame costs one Read; a larger
// (batch) frame grows it once to maxFrameLen. The zero value is ready.
type frameReader struct {
	buf []byte
	// buf[r:w] is read from the connection but not yet consumed. A
	// frame is at most maxFrameLen bytes, and 32-bit offsets keep a
	// Client, which holds a frameReader, in a 128-byte size class.
	r, w int32
}

// inlineFrameLen is a frameReader's first buffer: the largest
// single-node frame — a GetStatus response with a fenced limit, 32
// payload bytes — is 44 bytes.
const inlineFrameLen = 48

// next returns the connection's next frame. Its Payload aliases the
// reader's buffer and is valid only until the following call. Bytes
// read past the frame's end are kept for that call.
func (fr *frameReader) next(src io.Reader) (Frame, error) {
	need := headerLen
	for {
		if have := fr.buf[fr.r:fr.w]; len(have) >= headerLen {
			plen, err := payloadLen(have)
			if err != nil {
				return Frame{}, err
			}
			need = headerLen + plen + 1
			if len(have) >= need {
				fr.r += int32(need)
				return openFrame(have[:headerLen], have[headerLen:need])
			}
		}
		switch {
		case fr.r == fr.w:
			fr.r, fr.w = 0, 0
		case int(fr.r)+need > len(fr.buf):
			fr.w = int32(copy(fr.buf, fr.buf[fr.r:fr.w]))
			fr.r = 0
		}
		if need > len(fr.buf) {
			size := inlineFrameLen
			if need > size {
				size = maxFrameLen
			}
			fr.buf = append(make([]byte, 0, size), fr.buf[:fr.w]...)[:size]
		}
		n, err := src.Read(fr.buf[fr.w:])
		fr.w += int32(n)
		if err != nil && int(fr.w-fr.r) < need {
			if err == io.EOF && fr.w > fr.r {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
}

// --- payload codecs -------------------------------------------------

// Watts are carried as centiwatts in a uint32, IPMI style (no floats
// on the wire).
func appendWatts(b []byte, w float64) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(w*100+0.5))
}

// MaxWireWatts is the largest wattage a centiwatt field carries: an
// enabled cap above it cannot be pushed.
const MaxWireWatts = math.MaxUint32 / 100.0

// checkLimit refuses an enabled limit whose watts the centiwatt field
// cannot carry: appendWatts would wrap NaN, ±Inf, a negative or an
// oversized cap into some other, enforceable cap.
func checkLimit(p PowerLimit) error {
	if p.Enabled && !(p.CapWatts >= 0 && p.CapWatts <= MaxWireWatts) {
		return fmt.Errorf("ipmi: cap %v W is outside the wire range [0, %.2f]", p.CapWatts, MaxWireWatts)
	}
	return nil
}

func getWatts(b []byte) float64 {
	return float64(binary.BigEndian.Uint32(b)) / 100
}

// DeviceInfo describes a managed node.
type DeviceInfo struct {
	DeviceID       uint8
	FirmwareMajor  uint8
	FirmwareMinor  uint8
	ManufacturerID uint32
	ProductID      uint16
}

// EncodeDeviceInfo packs a GetDeviceID response payload.
func EncodeDeviceInfo(d DeviceInfo) []byte { return appendDeviceInfo(make([]byte, 0, 9), d) }

func appendDeviceInfo(b []byte, d DeviceInfo) []byte {
	b = append(b, d.DeviceID, d.FirmwareMajor, d.FirmwareMinor)
	b = binary.BigEndian.AppendUint32(b, d.ManufacturerID)
	return binary.BigEndian.AppendUint16(b, d.ProductID)
}

// DecodeDeviceInfo unpacks a GetDeviceID response payload.
func DecodeDeviceInfo(b []byte) (DeviceInfo, error) {
	if len(b) != 9 {
		return DeviceInfo{}, fmt.Errorf("ipmi: device info payload length %d", len(b))
	}
	return DeviceInfo{
		DeviceID:       b[0],
		FirmwareMajor:  b[1],
		FirmwareMinor:  b[2],
		ManufacturerID: binary.BigEndian.Uint32(b[3:]),
		ProductID:      binary.BigEndian.Uint16(b[7:]),
	}, nil
}

// PowerReading is a GetPowerReading response.
type PowerReading struct {
	CurrentWatts float64
	AverageWatts float64
}

// EncodePowerReading packs a power reading.
func EncodePowerReading(p PowerReading) []byte { return appendPowerReading(make([]byte, 0, 8), p) }

func appendPowerReading(b []byte, p PowerReading) []byte {
	return appendWatts(appendWatts(b, p.CurrentWatts), p.AverageWatts)
}

// DecodePowerReading unpacks a power reading.
func DecodePowerReading(b []byte) (PowerReading, error) {
	if len(b) != 8 {
		return PowerReading{}, fmt.Errorf("ipmi: power reading payload length %d", len(b))
	}
	return PowerReading{CurrentWatts: getWatts(b[0:]), AverageWatts: getWatts(b[4:])}, nil
}

// PowerLimit is a Set/GetPowerLimit payload.
type PowerLimit struct {
	Enabled  bool
	CapWatts float64
	// Epoch is the writer's leadership epoch, used as a fencing token:
	// a BMC that has honoured epoch E rejects pushes stamped with any
	// lower non-zero epoch (CCStaleEpoch). Zero means unfenced — a solo
	// manager with no HA pair.
	Epoch uint64
}

// EncodePowerLimit packs a power limit: flag(1) centiwatts(4), plus an
// optional trailing epoch(8) when the writer is fenced. Epoch-zero
// limits use the 5-byte legacy layout so pre-HA peers interoperate.
func EncodePowerLimit(p PowerLimit) []byte {
	n := 5
	if p.Epoch > 0 {
		n = 13
	}
	return appendPowerLimit(make([]byte, 0, n), p)
}

func appendPowerLimit(b []byte, p PowerLimit) []byte {
	b = appendWatts(append(b, flagByte(p.Enabled)), p.CapWatts)
	if p.Epoch > 0 {
		b = binary.BigEndian.AppendUint64(b, p.Epoch)
	}
	return b
}

// flagByte is a boolean's wire form.
func flagByte(on bool) byte {
	if on {
		return 1
	}
	return 0
}

// DecodePowerLimit unpacks a power limit. The epoch is optional: a
// 5-byte payload (pre-HA firmware or an unfenced writer) decodes as
// epoch zero.
func DecodePowerLimit(b []byte) (PowerLimit, error) {
	if len(b) != 5 && len(b) != 13 {
		return PowerLimit{}, fmt.Errorf("ipmi: power limit payload length %d", len(b))
	}
	p := PowerLimit{Enabled: b[0] != 0, CapWatts: getWatts(b[1:])}
	if len(b) == 13 {
		p.Epoch = binary.BigEndian.Uint64(b[5:])
	}
	return p, nil
}

// PStateInfo is a GetPStateInfo response.
type PStateInfo struct {
	Index   uint8
	Count   uint8
	FreqMHz uint16
}

// EncodePStateInfo packs P-state information.
func EncodePStateInfo(p PStateInfo) []byte { return appendPStateInfo(make([]byte, 0, 4), p) }

func appendPStateInfo(b []byte, p PStateInfo) []byte {
	return binary.BigEndian.AppendUint16(append(b, p.Index, p.Count), p.FreqMHz)
}

// DecodePStateInfo unpacks P-state information.
func DecodePStateInfo(b []byte) (PStateInfo, error) {
	if len(b) != 4 {
		return PStateInfo{}, fmt.Errorf("ipmi: pstate payload length %d", len(b))
	}
	return PStateInfo{Index: b[0], Count: b[1], FreqMHz: binary.BigEndian.Uint16(b[2:])}, nil
}

// Capabilities is a GetCapabilities response: the cap range the
// platform can honour, plus the priority tier the platform advertises
// for budget allocation.
type Capabilities struct {
	MinCapWatts float64 // at/below this the platform cannot track the cap
	MaxCapWatts float64
	Tier        uint8 // TierLow or TierHigh
}

// Wire values for Capabilities.Tier.
const (
	TierLow  uint8 = 0
	TierHigh uint8 = 1
)

// EncodeCapabilities packs a capability range: min(4) max(4) tier(1).
func EncodeCapabilities(c Capabilities) []byte { return appendCapabilities(make([]byte, 0, 9), c) }

func appendCapabilities(b []byte, c Capabilities) []byte {
	return append(appendWatts(appendWatts(b, c.MinCapWatts), c.MaxCapWatts), c.Tier)
}

// DecodeCapabilities unpacks a capability range. The tier byte is
// optional: an 8-byte payload (pre-tier firmware) decodes as TierLow.
func DecodeCapabilities(b []byte) (Capabilities, error) {
	if len(b) != 8 && len(b) != 9 {
		return Capabilities{}, fmt.Errorf("ipmi: capabilities payload length %d", len(b))
	}
	c := Capabilities{MinCapWatts: getWatts(b[0:]), MaxCapWatts: getWatts(b[4:])}
	if len(b) == 9 {
		c.Tier = b[8]
	}
	return c, nil
}

// NodeStatus is one monitoring read of a node: a GetStatus response,
// what the five Get commands it replaces return together.
type NodeStatus struct {
	Reading PowerReading
	PState  PStateInfo
	Gating  int
	Limit   PowerLimit
	Health  Health
}

// statusFixedLen is a GetStatus payload up to its limit: reading(8)
// P-state(4) gating(1) health(5).
const statusFixedLen = 8 + 4 + 1 + 5

// EncodeStatus packs a GetStatus response payload: reading(8) P-state(4)
// gating(1) health(5), then the limit (5, or 13 when fenced), last
// because its length varies.
func EncodeStatus(st NodeStatus) []byte {
	return appendStatus(make([]byte, 0, statusFixedLen+13), st)
}

func appendStatus(b []byte, st NodeStatus) []byte {
	b = appendPStateInfo(appendPowerReading(b, st.Reading), st.PState)
	b = appendHealth(append(b, byte(st.Gating)), st.Health)
	return appendPowerLimit(b, st.Limit)
}

// DecodeStatus unpacks a GetStatus response payload.
func DecodeStatus(b []byte) (NodeStatus, error) {
	if len(b) != statusFixedLen+5 && len(b) != statusFixedLen+13 {
		return NodeStatus{}, fmt.Errorf("ipmi: status payload length %d", len(b))
	}
	var st NodeStatus
	st.Reading, _ = DecodePowerReading(b[:8])
	st.PState, _ = DecodePStateInfo(b[8:12])
	st.Gating = int(b[12])
	st.Health, _ = DecodeHealth(b[13:statusFixedLen])
	st.Limit, _ = DecodePowerLimit(b[statusFixedLen:])
	return st, nil
}

// Health is a GetHealth response: the BMC's defensive-controller
// status (fail-safe mode, lifetime sensor-fault count, infeasible
// active cap).
type Health struct {
	FailSafe      bool
	SensorFaults  uint32
	InfeasibleCap bool
}

// Health flag bits.
const (
	healthFailSafe      = 1 << 0
	healthInfeasibleCap = 1 << 1
)

// EncodeHealth packs a health report: flags(1) sensorFaults(4).
func EncodeHealth(h Health) []byte { return appendHealth(make([]byte, 0, 5), h) }

func appendHealth(b []byte, h Health) []byte {
	var flags byte
	if h.FailSafe {
		flags |= healthFailSafe
	}
	if h.InfeasibleCap {
		flags |= healthInfeasibleCap
	}
	return binary.BigEndian.AppendUint32(append(b, flags), h.SensorFaults)
}

// DecodeHealth unpacks a health report.
func DecodeHealth(b []byte) (Health, error) {
	if len(b) != 5 {
		return Health{}, fmt.Errorf("ipmi: health payload length %d", len(b))
	}
	return Health{
		FailSafe:      b[0]&healthFailSafe != 0,
		InfeasibleCap: b[0]&healthInfeasibleCap != 0,
		SensorFaults:  binary.BigEndian.Uint32(b[1:]),
	}, nil
}

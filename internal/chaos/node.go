package chaos

import (
	"bytes"
	"errors"
	"fmt"

	"nodecap/internal/fleet"
	"nodecap/internal/ipmi"
)

var (
	errLinkDown = errors.New("chaos: link partitioned")
	errLinkAsym = errors.New("chaos: response lost (asymmetric partition)")
)

// nodeCtl adapts engine node i to ipmi.NodeControl, the BMC's
// management surface. All state lives in the fleet engine; the adapter
// carries only the index.
type nodeCtl struct {
	f *Fleet
	i int
}

func (c *nodeCtl) DeviceInfo() ipmi.DeviceInfo {
	return ipmi.DeviceInfo{
		DeviceID:       0x20,
		FirmwareMajor:  1,
		ManufacturerID: 343, // Intel's IANA enterprise number
		ProductID:      0x0C4A,
	}
}

// PowerReading reports the controller's smoothed estimate rather than
// a fresh sensor draw: management polls must not perturb the seeded
// per-tick noise stream, and DCM's demand signal is a recent average
// anyway.
func (c *nodeCtl) PowerReading() ipmi.PowerReading {
	// Feed for the no_starvation checker: the manager demonstrably read
	// this node's power since the last poll-round audit.
	c.f.markSampled(c.i)
	w := c.f.eng.ManagementWatts(c.i)
	return ipmi.PowerReading{CurrentWatts: w, AverageWatts: w}
}

// SetPowerLimit lands an admitted push on the engine. The engine
// records the actuation epoch for the single-writer invariant — this
// runs only for pushes the ipmi.Server fence admitted, so a regression
// there means a stale epoch actuated the plant. Infeasible caps are
// applied-but-flagged (the paper's 120 W rows); surfaced via Health,
// not as a wire error.
func (c *nodeCtl) SetPowerLimit(lim ipmi.PowerLimit) error {
	c.f.eng.PushPolicy(c.i, lim.Enabled, lim.CapWatts, lim.Epoch)
	return nil
}

func (c *nodeCtl) PowerLimit() ipmi.PowerLimit {
	enabled, capW := c.f.eng.Policy(c.i)
	return ipmi.PowerLimit{Enabled: enabled, CapWatts: capW}
}

func (c *nodeCtl) PStateInfo() ipmi.PStateInfo {
	i := c.f.eng.PState(c.i)
	return ipmi.PStateInfo{
		Index:   uint8(i),
		Count:   fleet.NumPStates,
		FreqMHz: uint16(3000 - 120*i),
	}
}

func (c *nodeCtl) GatingLevel() int {
	return c.f.eng.GatingLevel(c.i)
}

func (c *nodeCtl) Capabilities() ipmi.Capabilities {
	return ipmi.Capabilities{
		MinCapWatts: c.f.eng.FloorWatts(),
		MaxCapWatts: maxCapWatts,
	}
}

func (c *nodeCtl) Health() ipmi.Health {
	h := c.f.eng.NodeHealth(c.i)
	return ipmi.Health{
		FailSafe:      h.FailSafe,
		SensorFaults:  uint32(h.SensorFaults),
		InfeasibleCap: h.InfeasibleCap,
	}
}

// memLink implements dcm.BMC by round-tripping real wire frames
// through the node's ipmi.Server dispatch table in-process — the full
// codec path without socket timing. An asymmetric partition applies
// the request but loses the response, exactly the failure mode where
// a manager must not assume a failed push changed nothing.
type memLink struct {
	f   *Fleet
	i   int
	seq uint32
	// leaf is the tree leaf index whose manager owns this connection
	// (-1 without a tree). Admitted cap pushes are attributed to it for
	// the single_owner checker.
	leaf int
}

func (l *memLink) call(cmd uint8, payload []byte) ([]byte, error) {
	down, asym := l.f.linkState(l.i)
	if down {
		return nil, errLinkDown
	}
	// A stormed node answers correctly but late: advance simulated time
	// by this exchange's jittered latency so the manager's clock reads
	// around the call measure the slowness for real.
	l.f.injectLatency(l.i)
	l.seq++
	req := ipmi.Frame{Seq: l.seq, NetFn: ipmi.NetFnOEM, Cmd: cmd, Payload: payload}
	b, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	onWire, err := ipmi.ReadFrame(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	resp := l.f.srvs[l.i].Handle(onWire)
	if asym {
		return nil, errLinkAsym
	}
	rb, err := resp.Marshal()
	if err != nil {
		return nil, err
	}
	back, err := ipmi.ReadFrame(bytes.NewReader(rb))
	if err != nil {
		return nil, err
	}
	if len(back.Payload) == 0 {
		return nil, errors.New("chaos: empty response payload")
	}
	switch cc := back.Payload[0]; cc {
	case ipmi.CCOK:
	case ipmi.CCStaleEpoch:
		// Surface the fencing verdict as the sentinel error, exactly as
		// the TCP client does, so the manager's fenced detection fires
		// through the in-process path too.
		return nil, ipmi.ErrStaleEpoch
	default:
		return nil, fmt.Errorf("chaos: completion code %#02x", cc)
	}
	return back.Payload[1:], nil
}

func (l *memLink) GetDeviceID() (ipmi.DeviceInfo, error) {
	p, err := l.call(ipmi.CmdGetDeviceID, nil)
	if err != nil {
		return ipmi.DeviceInfo{}, err
	}
	return ipmi.DecodeDeviceInfo(p)
}

func (l *memLink) GetPowerReading() (ipmi.PowerReading, error) {
	p, err := l.call(ipmi.CmdGetPowerReading, nil)
	if err != nil {
		return ipmi.PowerReading{}, err
	}
	return ipmi.DecodePowerReading(p)
}

func (l *memLink) SetPowerLimit(lim ipmi.PowerLimit) error {
	_, err := l.call(ipmi.CmdSetPowerLimit, ipmi.EncodePowerLimit(lim))
	if err == nil && l.leaf >= 0 {
		// The plant admitted this push on a leaf-attributed connection;
		// single_owner audits it against current tree ownership. Every
		// push comes from the run loop or its one-worker polls, which
		// finish before Poll returns, so the log needs no lock.
		l.f.pushLog = append(l.f.pushLog, ownedPush{node: l.i, leaf: l.leaf})
	}
	return err
}

func (l *memLink) GetPowerLimit() (ipmi.PowerLimit, error) {
	p, err := l.call(ipmi.CmdGetPowerLimit, nil)
	if err != nil {
		return ipmi.PowerLimit{}, err
	}
	return ipmi.DecodePowerLimit(p)
}

func (l *memLink) GetPStateInfo() (ipmi.PStateInfo, error) {
	p, err := l.call(ipmi.CmdGetPStateInfo, nil)
	if err != nil {
		return ipmi.PStateInfo{}, err
	}
	return ipmi.DecodePStateInfo(p)
}

func (l *memLink) GetGatingLevel() (int, error) {
	p, err := l.call(ipmi.CmdGetGatingLevel, nil)
	if err != nil {
		return 0, err
	}
	if len(p) < 1 {
		return 0, errors.New("chaos: short gating payload")
	}
	return int(p[0]), nil
}

func (l *memLink) GetCapabilities() (ipmi.Capabilities, error) {
	p, err := l.call(ipmi.CmdGetCapabilities, nil)
	if err != nil {
		return ipmi.Capabilities{}, err
	}
	return ipmi.DecodeCapabilities(p)
}

func (l *memLink) GetHealth() (ipmi.Health, error) {
	p, err := l.call(ipmi.CmdGetHealth, nil)
	if err != nil {
		return ipmi.Health{}, err
	}
	return ipmi.DecodeHealth(p)
}

func (l *memLink) Close() error { return nil }

package chaos

import (
	"errors"

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

// link is node i's end of an in-process manager connection: the
// handler under an ipmi.Loopback, so the manager talks to the node
// through the product's ipmi.Client. An asymmetric partition applies
// the request but loses the response, exactly the failure mode where a
// manager must not assume a failed push changed nothing. leaf is the
// tree leaf index whose manager owns the connection (-1 without a
// tree); admitted cap pushes are attributed to it for single_owner.
func (f *Fleet) link(i, leaf int) func(ipmi.Frame) (ipmi.Frame, error) {
	return func(req ipmi.Frame) (ipmi.Frame, error) {
		down, asym := f.linkState(i)
		if down {
			return ipmi.Frame{}, errLinkDown
		}
		// A stormed node answers correctly but late: advance simulated
		// time by this exchange's jittered latency so the manager's clock
		// reads around the call measure the slowness for real.
		f.injectLatency(i)
		resp := f.srvs[i].Handle(req)
		if asym {
			return ipmi.Frame{}, errLinkAsym
		}
		if req.Cmd == ipmi.CmdSetPowerLimit && leaf >= 0 && len(resp.Payload) > 0 && resp.Payload[0] == ipmi.CCOK {
			// Every push comes from the run loop or its one-worker polls,
			// which finish before Poll returns, so the log needs no lock.
			f.pushLog = append(f.pushLog, ownedPush{node: i, leaf: leaf})
		}
		return resp, nil
	}
}

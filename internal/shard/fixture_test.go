package shard

import (
	"fmt"
	"io"
	"sync"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/ipmi"
)

// The test plant: a set of in-process BMC endpoints sharing one
// ipmi.Mux, so the per-node leaf connections and the tree's batch
// transport exercise the same dispatch — and the same fence
// watermarks — the real deployment would.

type plantNode struct {
	mu       sync.Mutex
	min, max float64
	watts    float64
	limit    ipmi.PowerLimit
	srv      *ipmi.Server
}

func (n *plantNode) DeviceInfo() ipmi.DeviceInfo { return ipmi.DeviceInfo{DeviceID: 1} }
func (n *plantNode) PowerReading() ipmi.PowerReading {
	n.mu.Lock()
	defer n.mu.Unlock()
	return ipmi.PowerReading{CurrentWatts: n.watts, AverageWatts: n.watts}
}
func (n *plantNode) SetPowerLimit(l ipmi.PowerLimit) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.limit = l
	return nil
}
func (n *plantNode) PowerLimit() ipmi.PowerLimit {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.limit
}
func (n *plantNode) PStateInfo() ipmi.PStateInfo { return ipmi.PStateInfo{Count: 16, FreqMHz: 2400} }
func (n *plantNode) GatingLevel() int            { return 0 }
func (n *plantNode) Capabilities() ipmi.Capabilities {
	n.mu.Lock()
	defer n.mu.Unlock()
	return ipmi.Capabilities{MinCapWatts: n.min, MaxCapWatts: n.max}
}
func (n *plantNode) Health() ipmi.Health { return ipmi.Health{} }

type plant struct {
	mu    sync.Mutex
	mux   *ipmi.Mux
	nodes map[string]*plantNode // by addr
	down  bool                  // all dials and exchanges fail
}

func newPlant() *plant {
	return &plant{mux: ipmi.NewMux(), nodes: make(map[string]*plantNode)}
}

func (p *plant) addNode(addr string, id uint32, min, max, watts float64) *plantNode {
	n := &plantNode{min: min, max: max, watts: watts}
	n.srv = ipmi.NewServer(n)
	p.mu.Lock()
	p.nodes[addr] = n
	p.mu.Unlock()
	p.mux.Register(id, n.srv)
	return n
}

func (p *plant) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

func (p *plant) isDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// dial is the leaf managers' dcm.Dialer: an in-process BMC that
// round-trips real frames through the node's ipmi.Server dispatch.
func (p *plant) dial(addr string) (dcm.BMC, error) {
	if p.isDown() {
		return nil, fmt.Errorf("plant: link down")
	}
	p.mu.Lock()
	n := p.nodes[addr]
	p.mu.Unlock()
	if n == nil {
		return nil, fmt.Errorf("plant: unknown addr %q", addr)
	}
	return &loopBMC{plant: p, srv: n.srv}, nil
}

// loopBMC drives one node's server dispatch in-process.
type loopBMC struct {
	plant *plant
	srv   *ipmi.Server
	seq   uint32
}

func (b *loopBMC) call(cmd uint8, payload []byte) ([]byte, error) {
	if b.plant.isDown() {
		return nil, fmt.Errorf("plant: link down")
	}
	b.seq++
	resp := b.srv.Handle(ipmi.Frame{Seq: b.seq, NetFn: ipmi.NetFnOEM, Cmd: cmd, Payload: payload})
	if len(resp.Payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	switch cc := resp.Payload[0]; cc {
	case ipmi.CCOK:
		return resp.Payload[1:], nil
	case ipmi.CCStaleEpoch:
		return nil, ipmi.ErrStaleEpoch
	default:
		return nil, fmt.Errorf("plant: completion code %#x", cc)
	}
}

func (b *loopBMC) GetDeviceID() (ipmi.DeviceInfo, error) {
	p, err := b.call(ipmi.CmdGetDeviceID, nil)
	if err != nil {
		return ipmi.DeviceInfo{}, err
	}
	return ipmi.DecodeDeviceInfo(p)
}
func (b *loopBMC) GetPowerReading() (ipmi.PowerReading, error) {
	p, err := b.call(ipmi.CmdGetPowerReading, nil)
	if err != nil {
		return ipmi.PowerReading{}, err
	}
	return ipmi.DecodePowerReading(p)
}
func (b *loopBMC) SetPowerLimit(l ipmi.PowerLimit) error {
	_, err := b.call(ipmi.CmdSetPowerLimit, ipmi.EncodePowerLimit(l))
	return err
}
func (b *loopBMC) GetPowerLimit() (ipmi.PowerLimit, error) {
	p, err := b.call(ipmi.CmdGetPowerLimit, nil)
	if err != nil {
		return ipmi.PowerLimit{}, err
	}
	return ipmi.DecodePowerLimit(p)
}
func (b *loopBMC) GetPStateInfo() (ipmi.PStateInfo, error) {
	p, err := b.call(ipmi.CmdGetPStateInfo, nil)
	if err != nil {
		return ipmi.PStateInfo{}, err
	}
	return ipmi.DecodePStateInfo(p)
}
func (b *loopBMC) GetGatingLevel() (int, error) {
	p, err := b.call(ipmi.CmdGetGatingLevel, nil)
	if err != nil {
		return 0, err
	}
	if len(p) != 1 {
		return 0, fmt.Errorf("plant: gating payload length %d", len(p))
	}
	return int(p[0]), nil
}
func (b *loopBMC) GetCapabilities() (ipmi.Capabilities, error) {
	p, err := b.call(ipmi.CmdGetCapabilities, nil)
	if err != nil {
		return ipmi.Capabilities{}, err
	}
	return ipmi.DecodeCapabilities(p)
}
func (b *loopBMC) GetHealth() (ipmi.Health, error) {
	p, err := b.call(ipmi.CmdGetHealth, nil)
	if err != nil {
		return ipmi.Health{}, err
	}
	return ipmi.DecodeHealth(p)
}
func (b *loopBMC) Close() error { return nil }

// muxTransport is the tree's BatchTransport over the plant's mux,
// round-tripping real batch frames through Mux.Handle.
type muxTransport struct {
	mux *ipmi.Mux
	seq uint32
}

func (m *muxTransport) exchange(cmd uint8, payload []byte) ([]byte, error) {
	m.seq++
	resp := m.mux.Handle(ipmi.Frame{Seq: m.seq, NetFn: ipmi.NetFnOEM, Cmd: cmd, Payload: payload})
	if len(resp.Payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	if cc := resp.Payload[0]; cc != ipmi.CCOK {
		return nil, fmt.Errorf("plant: batch completion code %#x", cc)
	}
	return resp.Payload[1:], nil
}

func (m *muxTransport) BatchPoll(ids []uint32) ([]ipmi.BatchPollResult, error) {
	payload, err := ipmi.EncodeBatchPollRequest(ids)
	if err != nil {
		return nil, err
	}
	b, err := m.exchange(ipmi.CmdBatchPoll, payload)
	if err != nil {
		return nil, err
	}
	return ipmi.DecodeBatchPollResponse(b)
}

func (m *muxTransport) BatchSet(entries []ipmi.BatchSetEntry) ([]ipmi.BatchSetResult, error) {
	payload, err := ipmi.EncodeBatchSetRequest(entries)
	if err != nil {
		return nil, err
	}
	b, err := m.exchange(ipmi.CmdBatchSet, payload)
	if err != nil {
		return nil, err
	}
	return ipmi.DecodeBatchSetResponse(b)
}

// fakeClock is the injected manager clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newLeafMgr builds a deterministic, fast-failing leaf manager over
// the plant.
func newLeafMgr(p *plant, clock *fakeClock) *dcm.Manager {
	m := dcm.NewManager(p.dial)
	m.RetryBaseDelay = time.Nanosecond
	m.RetryMaxDelay = time.Nanosecond
	m.StaleAfter = time.Millisecond
	m.Clock = clock.now
	m.Breaker = dcm.BreakerConfig{FailureThreshold: -1}
	return m
}

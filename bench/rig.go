package main

// The benchmark-owned rig: simulated nodes are one fleet.Engine, each
// node's BMC endpoint is an ipmi.Server over an engine-backed
// NodeControl adapter, and the control plane is a shard.Tree over four
// leaf dcm.Managers with their own state dirs — built the way dcmd
// builds them. The rig owns the dcm.Dialer, the adapter and the
// net.Conn, so the traced run wraps all three without editing the
// program under test.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"time"

	"nodecap/internal/dcm"
	"nodecap/internal/fleet"
	"nodecap/internal/ipmi"
	"nodecap/internal/shard"
	"nodecap/internal/telemetry"
)

const (
	rigLeaves = 4
	// ringSeed is fixed, as dcmd's is: the node→leaf assignment is part
	// of the rig, not of a run's inputs.
	ringSeed = 1
	// maxCapWatts is the top of the cap range every simulated platform
	// advertises (the chaos fleet's value).
	maxCapWatts = 180.0

	wireConnectTimeout = 5 * time.Second
	wireRequestTimeout = 10 * time.Second
)

// engineNode adapts engine node i to ipmi.NodeControl. All state lives
// in the engine; the adapter carries only the index.
type engineNode struct {
	eng *fleet.Engine
	i   int
}

func (c engineNode) DeviceInfo() ipmi.DeviceInfo {
	return ipmi.DeviceInfo{DeviceID: 0x20, FirmwareMajor: 1, ManufacturerID: 343, ProductID: 0x0C4A}
}

// PowerReading serves the controller's smoothed estimate, never a
// fresh sensor draw, so polling cannot perturb the seeded noise streams.
func (c engineNode) PowerReading() ipmi.PowerReading {
	w := c.eng.ManagementWatts(c.i)
	return ipmi.PowerReading{CurrentWatts: w, AverageWatts: w}
}

func (c engineNode) SetPowerLimit(lim ipmi.PowerLimit) error {
	c.eng.PushPolicy(c.i, lim.Enabled, lim.CapWatts, lim.Epoch)
	return nil
}

func (c engineNode) PowerLimit() ipmi.PowerLimit {
	on, w := c.eng.Policy(c.i)
	return ipmi.PowerLimit{Enabled: on, CapWatts: w}
}

func (c engineNode) PStateInfo() ipmi.PStateInfo {
	p := c.eng.PState(c.i)
	return ipmi.PStateInfo{Index: uint8(p), Count: fleet.NumPStates, FreqMHz: uint16(3000 - 120*p)}
}

func (c engineNode) GatingLevel() int { return c.eng.GatingLevel(c.i) }

func (c engineNode) Capabilities() ipmi.Capabilities {
	return ipmi.Capabilities{MinCapWatts: c.eng.FloorWatts(), MaxCapWatts: maxCapWatts}
}

func (c engineNode) Health() ipmi.Health {
	h := c.eng.NodeHealth(c.i)
	return ipmi.Health{FailSafe: h.FailSafe, SensorFaults: uint32(h.SensorFaults), InfeasibleCap: h.InfeasibleCap}
}

// loopConn is the in-process link: a net.Conn whose Write decodes the
// request frame, dispatches it through the node's ipmi.Server and
// queues the marshalled response for Read. Under ipmi.NewClientConn it
// is the whole wire path — marshal, ReadFrame, Server.Handle, marshal,
// ReadFrame — without a socket.
type loopConn struct {
	srv *ipmi.Server
	rd  bytes.Reader
}

func (c *loopConn) Write(b []byte) (int, error) {
	req, err := ipmi.ReadFrame(bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	rb, err := c.srv.Handle(req).Marshal()
	if err != nil {
		return 0, err
	}
	c.rd.Reset(rb)
	return len(b), nil
}

func (c *loopConn) Read(p []byte) (int, error)       { return c.rd.Read(p) }
func (c *loopConn) Close() error                     { return nil }
func (c *loopConn) LocalAddr() net.Addr              { return loopAddr{} }
func (c *loopConn) RemoteAddr() net.Addr             { return loopAddr{} }
func (c *loopConn) SetDeadline(time.Time) error      { return nil }
func (c *loopConn) SetReadDeadline(time.Time) error  { return nil }
func (c *loopConn) SetWriteDeadline(time.Time) error { return nil }

type loopAddr struct{}

func (loopAddr) Network() string { return "loop" }
func (loopAddr) String() string  { return "loop" }

// plant is the node plane: one engine, and one BMC endpoint per node
// behind either link. Its dial method is the dcm.Dialer the managers
// use.
type plant struct {
	eng   *fleet.Engine
	srvs  []*ipmi.Server
	addrs []string
	names []string
	index map[string]int // address and node name → engine index
	wire  bool           // real loopback TCP per node; false = loopConn
	tr    *tracer        // nil on the untraced run: no wrapper is installed at all
	reg   *telemetry.Registry
	trace *telemetry.Trace

	newEngine time.Duration // fleet.New, for the probes
}

func nodeName(i int) string { return fmt.Sprintf("node-%05d", i) }
func leafName(i int) string { return fmt.Sprintf("leaf-%02d", i) }

func newPlant(nodes int, wire bool, seed int64, tr *tracer) (*plant, error) {
	p := &plant{
		index: make(map[string]int, 2*nodes),
		wire:  wire,
		tr:    tr,
		reg:   telemetry.NewRegistry(),
		trace: telemetry.NewTrace(telemetry.DefaultTraceCapacity),
	}
	t0 := time.Now()
	p.eng = fleet.New(fleet.Config{Nodes: nodes, Seed: seed, NamePrefix: "node-", Parallelism: 1})
	p.newEngine = time.Since(t0)
	p.eng.SetTelemetry(p.reg, p.trace)
	for i := 0; i < nodes; i++ {
		srv := ipmi.NewServer(engineNode{p.eng, i})
		p.srvs = append(p.srvs, srv)
		addr := fmt.Sprintf("loop:%d", i)
		if wire {
			var err error
			if addr, err = srv.Listen("127.0.0.1:0"); err != nil {
				p.close()
				return nil, fmt.Errorf("bench: node %d listen: %w", i, err)
			}
		}
		name := nodeName(i)
		p.addrs = append(p.addrs, addr)
		p.names = append(p.names, name)
		p.index[addr], p.index[name] = i, i
	}
	return p, nil
}

// dial is the plant's dcm.Dialer. The untraced wire run dials exactly
// as dcmd does; the traced run slides a counting net.Conn under the
// client and a span-recording dcm.BMC over it.
func (p *plant) dial(addr string) (dcm.BMC, error) {
	i, ok := p.index[addr]
	if !ok {
		return nil, fmt.Errorf("bench: unknown address %q", addr)
	}
	var c *ipmi.Client
	switch {
	case !p.wire:
		var conn net.Conn = &loopConn{srv: p.srvs[i]}
		if p.tr != nil {
			conn = &countingConn{Conn: conn, tr: p.tr}
		}
		c = ipmi.NewClientConn(conn)
	case p.tr == nil:
		var err error
		if c, err = ipmi.DialTimeout(addr, wireConnectTimeout, wireRequestTimeout); err != nil {
			return nil, err
		}
	default:
		conn, err := net.DialTimeout("tcp", addr, wireConnectTimeout)
		if err != nil {
			return nil, err
		}
		c = ipmi.NewClientConn(&countingConn{Conn: conn, tr: p.tr})
		c.SetRequestTimeout(wireRequestTimeout)
	}
	if p.tr == nil {
		return c, nil
	}
	return &tracedBMC{BMC: c, tr: p.tr}, nil
}

// newManager builds a manager the way dcmd does — NewManager defaults,
// telemetry wired, a state dir — changing only PollConcurrency, and
// turning fsync off: disk behaviour on a shared sandbox is not this
// program's.
func (p *plant) newManager(dir string, nproc int) (*dcm.Manager, error) {
	mgr := dcm.NewManager(p.dial)
	mgr.PollConcurrency = pollConcurrency(p.wire, nproc)
	mgr.SetTelemetry(p.reg, p.trace)
	if err := mgr.OpenStateDir(dir); err != nil {
		return nil, err
	}
	mgr.Store().SetSync(false)
	return mgr, nil
}

func (p *plant) close() {
	for _, s := range p.srvs {
		s.Close()
	}
	p.eng.Close()
}

// pollConcurrency is the load rule's Manager.PollConcurrency: 1 on the
// in-process rig, min(nproc, 2) on the wire rig.
func pollConcurrency(wire bool, nproc int) int {
	if wire && nproc >= 2 {
		return 2
	}
	return 1
}

// wattQuantum derives the wire codec's watt resolution from an
// EncodePowerLimit/DecodePowerLimit round trip: it walks a cap upward
// in steps far below any plausible resolution and returns the first
// jump the decoded value makes.
func wattQuantum() (float64, error) {
	decode := func(w float64) (float64, error) {
		lim, err := ipmi.DecodePowerLimit(ipmi.EncodePowerLimit(ipmi.PowerLimit{Enabled: true, CapWatts: w}))
		return lim.CapWatts, err
	}
	base, err := decode(100)
	if err != nil {
		return 0, err
	}
	for k := 1; k <= 1<<20; k++ {
		got, err := decode(100 + float64(k)/(1<<16))
		if err != nil {
			return 0, err
		}
		if got != base {
			return math.Abs(got - base), nil
		}
	}
	return 0, errors.New("bench: power-limit codec never resolved a 16 W step")
}

// rig is a plant under the control plane: a shard.Tree over rigLeaves
// leaf managers, each with its own state dir under dir. It owns the
// plant: closing the rig, or failing to build it, closes the plant.
type rig struct {
	*plant
	tree   *shard.Tree
	leaves []*dcm.Manager
	pushes *telemetry.Counter
	// quantum is the watt tolerance of every output check.
	quantum float64

	addNodes time.Duration // Tree.AddNodes, for the probes
}

func newRig(p *plant, dir string, nproc int) (*rig, error) {
	q, err := wattQuantum()
	if err != nil {
		return nil, err
	}
	r := &rig{plant: p, quantum: q, pushes: p.reg.Counter("dcm_cap_pushes_total")}
	r.tree = shard.NewTree(ringSeed, 0, nil, shard.SnapshotPathIn(dir))
	r.tree.SetTelemetry(p.trace)
	for li := 0; li < rigLeaves; li++ {
		mgr, err := p.newManager(filepath.Join(dir, leafName(li)), nproc)
		if err != nil {
			r.close()
			return nil, err
		}
		r.leaves = append(r.leaves, mgr)
		if _, err := r.tree.AddLeaf(leafName(li), mgr); err != nil {
			r.close()
			return nil, err
		}
	}
	infos := make([]shard.NodeInfo, len(p.names))
	for i := range infos {
		infos[i] = shard.NodeInfo{Name: p.names[i], Addr: p.addrs[i], ID: uint32(i)}
	}
	t0 := time.Now()
	if err := r.tree.AddNodes(infos); err != nil {
		r.close()
		return nil, err
	}
	r.addNodes = time.Since(t0)
	return r, nil
}

func (r *rig) storeSeq() uint64 {
	var n uint64
	for _, m := range r.leaves {
		n += m.Store().Seq()
	}
	return n
}

// checkCaps is the cap half of the output check, read from the engine
// side: every node's applied policy is enabled and equals its owning
// leaf's desired cap within the codec quantum, the tree's desired sum
// fits the budget, no push ever carried a regressed epoch, and no node
// sits in fail-safe.
func (r *rig) checkCaps(budget float64) error {
	seen := 0
	for li, m := range r.leaves {
		for _, st := range m.Nodes() {
			i, ok := r.index[st.Name]
			if !ok {
				return fmt.Errorf("%s holds unknown node %q", leafName(li), st.Name)
			}
			seen++
			on, w := r.eng.Policy(i)
			if !st.CapEnabled || !on || math.Abs(w-st.CapWatts) > r.quantum {
				return fmt.Errorf("%s: desired cap %.3f W (enabled %v), applied %.3f W (enabled %v)",
					st.Name, st.CapWatts, st.CapEnabled, w, on)
			}
			if r.eng.NodeHealth(i).FailSafe {
				return fmt.Errorf("%s is in fail-safe", st.Name)
			}
		}
	}
	if seen != len(r.names) {
		return fmt.Errorf("leaves hold %d nodes, rig has %d", seen, len(r.names))
	}
	if sum := r.tree.DesiredSum(); sum > budget+r.quantum*float64(len(r.names)) {
		return fmt.Errorf("desired sum %.2f W exceeds budget %.2f W", sum, budget)
	}
	r.eng.Lock()
	defer r.eng.Unlock()
	for i, n := range r.eng.Audit().EpochRegressions {
		if n != 0 {
			return fmt.Errorf("%s saw %d epoch regressions", r.names[i], n)
		}
	}
	return nil
}

// checkPoll is the read-path output check: every node reachable, its
// last sample equal to what the engine serves within the codec quantum,
// and stamped after since.
func (r *rig) checkPoll(since time.Time) error {
	seen := 0
	for _, m := range r.leaves {
		for _, st := range m.Nodes() {
			i := r.index[st.Name]
			seen++
			if !st.Reachable {
				return fmt.Errorf("%s unreachable: %s", st.Name, st.LastError)
			}
			if want := r.eng.ManagementWatts(i); math.Abs(st.Last.PowerWatts-want) > r.quantum {
				return fmt.Errorf("%s: polled %.3f W, engine serves %.3f W", st.Name, st.Last.PowerWatts, want)
			}
			if !st.Last.At.After(since) {
				return fmt.Errorf("%s: sample stamp did not advance", st.Name)
			}
		}
	}
	if seen != len(r.names) {
		return fmt.Errorf("leaves hold %d nodes, rig has %d", seen, len(r.names))
	}
	return nil
}

// close stops the managers, then the plant under them.
func (r *rig) close() {
	for _, m := range r.leaves {
		m.Close()
	}
	r.plant.close()
}

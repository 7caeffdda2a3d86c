package dcm

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nodecap/internal/telemetry"
)

// Control-plane protocol: newline-delimited JSON requests and
// responses over TCP, consumed by the dcmctl command-line tool.

// Default control-plane timeouts.
const (
	// DefaultIdleTimeout bounds how long a server-side handler waits
	// for the next request on an open connection.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultCallTimeout bounds one whole Call round trip.
	DefaultCallTimeout = time.Minute
)

// Request is one control-plane operation.
type Request struct {
	Op string `json:"op"` // "add", "remove", "nodes", "setcap", "settier", "budget", "poll", "history", "trace", "leader"

	Name string  `json:"name,omitempty"`
	Addr string  `json:"addr,omitempty"`
	Cap  float64 `json:"cap,omitempty"`
	Tier string  `json:"tier,omitempty"` // settier: "high" or "low"

	Budget float64  `json:"budget,omitempty"`
	Group  []string `json:"group,omitempty"`
	// Weights optionally overrides per-node priority weights for a
	// budget op; nodes not listed fall back to their tier's default.
	Weights map[string]float64 `json:"weights,omitempty"`

	Limit int `json:"limit,omitempty"` // history/trace tail length

	// Since is the trace follow cursor: return events with Seq >= Since
	// (0 means the tail). Name filters trace ops to one node.
	Since uint64 `json:"since,omitempty"`

	// Epoch, when non-zero, is the fencing epoch the client believes
	// is current; a mutating op whose epoch disagrees with the serving
	// manager's is rejected rather than applied by the wrong leader.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Response carries the result.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	Nodes   []NodeStatus      `json:"nodes,omitempty"`
	Allocs  []Allocation      `json:"allocs,omitempty"`
	History []Sample          `json:"history,omitempty"`
	Trace   []telemetry.Event `json:"trace,omitempty"`

	// Role/Epoch report the serving manager's HA state ("nodes" and
	// "leader" ops); Fenced is set when the manager has had a push
	// rejected for a stale epoch — it is not who it thinks it is.
	Role   string `json:"role,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Fenced bool   `json:"fenced,omitempty"`

	// Shards reports per-shard state ("shards" op, sharded daemons).
	Shards []ShardStatus `json:"shards,omitempty"`
}

// ShardStatus is one leaf shard's state as reported by a sharded
// (aggregator) control plane. It lives in this package — not
// internal/shard — because the wire Response carries it and shard
// already imports dcm.
type ShardStatus struct {
	Leaf        string  `json:"leaf"`
	Alive       bool    `json:"alive"`
	Epoch       uint64  `json:"epoch"`
	Nodes       int     `json:"nodes"`
	BudgetWatts float64 `json:"budget_watts"`
	Infeasible  bool    `json:"infeasible"`
}

// Control is what a Server serves: a flat *Manager, or a sharded
// daemon's aggregator (*shard.Tree), which routes each op to the leaf
// manager owning the node.
type Control interface {
	// HandleControl answers one request.
	HandleControl(Request) Response
	// Epoch is the fencing epoch mutating requests are checked against.
	Epoch() uint64
}

// Server exposes a Control over the control-plane protocol.
type Server struct {
	// IdleTimeout bounds the wait for a client's next request (and
	// the write of each response), so an idle or stalled dcmctl
	// connection cannot pin a handler goroutine forever. Zero means
	// DefaultIdleTimeout; set before Listen.
	IdleTimeout time.Duration

	mu       sync.Mutex
	ctl      Control // swappable: a promoted standby installs its restored manager
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer serves ctl.
func NewServer(ctl Control) *Server {
	return &Server{ctl: ctl, conns: make(map[net.Conn]struct{})}
}

// SetControl swaps what is served — how a standby daemon replaces its
// placeholder manager with the one restored from the replicated
// journal on promotion, without dropping client connections. An
// in-flight request keeps the control it already resolved.
func (s *Server) SetControl(ctl Control) {
	s.mu.Lock()
	s.ctl = ctl
	s.mu.Unlock()
}

// Listen binds addr and serves until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("dcm: server closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

func (s *Server) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	idle := s.IdleTimeout
	if idle <= 0 {
		idle = DefaultIdleTimeout
	}
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(idle))
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := s.Handle(req)
		conn.SetWriteDeadline(time.Now().Add(idle))
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// mutatingOps are the requests a deposed or stale client must not
// land on the wrong manager; they honour Request.Epoch.
var mutatingOps = map[string]bool{
	"add": true, "remove": true, "setcap": true, "settier": true, "budget": true,
}

// Handle dispatches one request; exposed for in-process use and tests.
// A mutating op carrying a client epoch that is not the served
// control's is refused here, ahead of dispatch, so the check holds for
// a flat manager and a sharded tree alike.
func (s *Server) Handle(req Request) Response {
	s.mu.Lock()
	ctl := s.ctl
	s.mu.Unlock()
	if mutatingOps[req.Op] && req.Epoch != 0 {
		if cur := ctl.Epoch(); req.Epoch != cur {
			return Response{Error: fmt.Sprintf("dcm: stale client epoch %d (serving epoch %d)", req.Epoch, cur)}
		}
	}
	return ctl.HandleControl(req)
}

// HandleControl serves the control-plane protocol for one flat manager.
func (m *Manager) HandleControl(req Request) Response {
	fail := func(err error) Response { return Response{Error: err.Error()} }
	switch req.Op {
	case "add":
		if err := m.AddNode(req.Name, req.Addr); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "remove":
		if err := m.RemoveNode(req.Name); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "nodes":
		return Response{
			OK: true, Nodes: m.Nodes(),
			Role: string(m.Role()), Epoch: m.Epoch(), Fenced: m.Fenced(),
		}
	case "leader":
		return Response{
			OK:   true,
			Role: string(m.Role()), Epoch: m.Epoch(), Fenced: m.Fenced(),
		}
	case "setcap":
		if req.Name == "" {
			return fail(fmt.Errorf("dcm: setcap requires a node name"))
		}
		if err := m.SetNodeCap(req.Name, req.Cap); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "settier":
		if req.Name == "" {
			return fail(fmt.Errorf("dcm: settier requires a node name"))
		}
		tier, err := ParseTier(req.Tier)
		if err != nil {
			return fail(err)
		}
		if err := m.SetNodeTier(req.Name, tier); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "budget":
		if len(req.Group) == 0 {
			return fail(fmt.Errorf("dcm: budget requires a non-empty node group"))
		}
		allocs, err := m.ApplyBudgetWeighted(req.Budget, req.Group, req.Weights)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Allocs: allocs}
	case "poll":
		m.Poll()
		return Response{OK: true, Nodes: m.Nodes()}
	case "trace":
		return Response{OK: true, Trace: m.TraceEvents(req.Since, req.Name, req.Limit)}
	case "history":
		h, err := m.History(req.Name)
		if err != nil {
			return fail(err)
		}
		if req.Limit > 0 && len(h) > req.Limit {
			h = h[len(h)-req.Limit:]
		}
		return Response{OK: true, History: h}
	default:
		return fail(fmt.Errorf("dcm: unknown op %q", req.Op))
	}
}

// Close stops the listener and open connections, and waits for
// handlers. It returns even with clients mid-connection: their
// connections are closed out from under them.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// Call dials a control-plane server, performs one request, and closes,
// bounded by DefaultCallTimeout.
func Call(addr string, req Request) (Response, error) {
	return CallTimeout(addr, req, DefaultCallTimeout)
}

// CallTimeout is Call with an explicit bound on the whole round trip
// (zero means unbounded, the pre-fault-model behaviour).
func CallTimeout(addr string, req Request, timeout time.Duration) (Response, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return Response{}, err
	}
	defer conn.Close()
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

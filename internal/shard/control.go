package shard

import (
	"fmt"
	"sort"

	"nodecap/internal/dcm"
)

// RoleAggregator is what a sharded control plane reports as its role:
// it is neither a solo manager nor half of an HA pair.
const RoleAggregator = "aggregator"

// NodeID derives the stable ring ID the control plane hashes a node
// name to. Anything that registers nodes outside HandleControl (Rebind's
// re-routing of journal-only nodes, tests) must use the same derivation
// or the same node would route to a different leaf on re-registration.
func NodeID(name string) uint32 { return uint32(fnv64a(name)) }

// HandleControl serves the dcmctl control-plane protocol for a sharded
// daemon: per-node ops go to the owning leaf manager's HandleControl,
// fleet-wide ops fan out across every attached leaf and merge, and the
// sharded-only "shards" op reports the tree. With Epoch it makes *Tree
// a dcm.Control.
func (t *Tree) HandleControl(req dcm.Request) dcm.Response {
	fail := func(err error) dcm.Response { return dcm.Response{Error: err.Error()} }
	switch req.Op {
	case "add":
		// The control plane addresses nodes by name; the ring hashes a
		// stable ID derived from it.
		if req.Name == "" {
			return fail(fmt.Errorf("shard: add requires a node name"))
		}
		if err := t.AddNode(req.Name, req.Addr, NodeID(req.Name)); err != nil {
			return fail(err)
		}
		return dcm.Response{OK: true}
	case "remove":
		if err := t.RemoveNode(req.Name); err != nil {
			return fail(err)
		}
		return dcm.Response{OK: true}
	case "nodes":
		return dcm.Response{
			OK: true, Nodes: t.allNodes(false),
			Role: RoleAggregator, Epoch: t.Epoch(),
		}
	case "leader":
		return dcm.Response{OK: true, Role: RoleAggregator, Epoch: t.Epoch()}
	case "poll":
		return dcm.Response{OK: true, Nodes: t.allNodes(true), Role: RoleAggregator, Epoch: t.Epoch()}
	case "setcap", "settier", "history":
		mgr, err := t.ownerManager(req.Name)
		if err != nil {
			return fail(err)
		}
		return mgr.HandleControl(req)
	case "budget":
		// The group is implicit — the whole tree; Rebalance divides it.
		res, err := t.Rebalance(req.Budget)
		if err != nil {
			return fail(err)
		}
		allocs := make([]dcm.Allocation, 0, len(res.Leaves))
		for _, name := range sortedKeys(res.Leaves) {
			allocs = append(allocs, dcm.Allocation{Name: name, CapWatts: res.Leaves[name]})
		}
		return dcm.Response{OK: true, Allocs: allocs}
	case "trace":
		// dcmd wires every leaf to one shared trace ring, so any attached
		// leaf answers for the whole tree.
		mgr := t.anyAttached()
		if mgr == nil {
			return fail(fmt.Errorf("shard: no attached leaves"))
		}
		return dcm.Response{OK: true, Trace: mgr.TraceEvents(req.Since, req.Name, req.Limit)}
	case "shards":
		return dcm.Response{OK: true, Shards: t.Status(), Role: RoleAggregator, Epoch: t.Epoch()}
	default:
		return fail(fmt.Errorf("shard: op %q not supported by the sharded control plane", req.Op))
	}
}

// anyAttached returns the first attached leaf manager in name order.
func (t *Tree) anyAttached() *dcm.Manager {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.memberNames() {
		if ls := t.leaves[name]; ls.mgr != nil {
			return ls.mgr
		}
	}
	return nil
}

// ownerManager resolves a node's owning leaf manager.
func (t *Tree) ownerManager(node string) (*dcm.Manager, error) {
	if node == "" {
		return nil, fmt.Errorf("shard: a node name is required")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	owner, ok := t.owners[node]
	if !ok {
		return nil, fmt.Errorf("shard: unknown node %q", node)
	}
	ls := t.leaves[owner]
	if ls == nil || ls.mgr == nil {
		return nil, fmt.Errorf("shard: node %q owner %q not attached", node, owner)
	}
	return ls.mgr, nil
}

// allNodes merges every attached leaf's node view, sorted by name —
// the aggregate a flat Manager.Nodes() would have reported. poll first
// sweeps each leaf (in leaf-name order) when asked.
func (t *Tree) allNodes(poll bool) []dcm.NodeStatus {
	t.mu.Lock()
	var mgrs []*dcm.Manager
	for _, name := range t.memberNames() {
		if ls := t.leaves[name]; ls.mgr != nil {
			mgrs = append(mgrs, ls.mgr)
		}
	}
	t.mu.Unlock()
	var out []dcm.NodeStatus
	for _, mgr := range mgrs {
		if poll {
			mgr.Poll()
		}
		out = append(out, mgr.Nodes()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sortedKeys lists a map's keys in order.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

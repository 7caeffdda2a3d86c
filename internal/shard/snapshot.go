package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// The aggregator journals its shard map — membership, node identities,
// ownership, epochs, budgets — as a single-frame snapshot rewritten
// atomically on every mutation. A restarted aggregator restores the
// map and resumes with the same ownership (Rebind attaches the live leaf
// managers and seizes the ones that died with it). The snapshot is
// CRC-32-framed and canonically ordered, so decode∘encode is the
// identity on the accepted set — the property FuzzAggregatorSnapshot
// pins.

// Snapshot frame layout (big-endian):
//
//	magic "NCSM" version(1)
//	seed(8) vnodes(4) epoch(8) rebalances(8) budget(8 float bits)
//	flags(1: bit0 infeasible)
//	leafCount(2) × [ nameLen(2) name budget(8) flags(1) ]
//	nodeCount(4) × [ nameLen(2) name addrLen(2) addr ownerLen(2) owner id(4) ]
//	crc32(4) over everything above
const (
	snapMagic   = "NCSM"
	snapVersion = 1
)

// TreeState is the aggregator's journaled shard map.
type TreeState struct {
	Seed       uint64
	Vnodes     int
	Epoch      uint64
	Rebalances uint64
	Budget     float64
	Infeasible bool
	Leaves     []LeafRecord // sorted by name
	Nodes      []NodeRecord // sorted by name
}

// LeafRecord is one member leaf's persisted state.
type LeafRecord struct {
	Name       string
	Budget     float64
	Infeasible bool
}

// NodeRecord is one node's persisted identity and ownership.
type NodeRecord struct {
	Name  string
	Addr  string
	Owner string
	ID    uint32
}

func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("shard: snapshot string of %d bytes", len(s))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// EncodeSnapshot packs st canonically: leaves and nodes are sorted by
// name first, so two aggregators with the same state emit identical
// bytes.
func EncodeSnapshot(st TreeState) ([]byte, error) {
	leaves := append([]LeafRecord(nil), st.Leaves...)
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Name < leaves[j].Name })
	nodes := append([]NodeRecord(nil), st.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return appendSnapshot(nil, st,
		len(leaves), func(i int) LeafRecord { return leaves[i] },
		len(nodes), func(i int) NodeRecord { return nodes[i] })
}

// appendSnapshot appends the snapshot frame for st's scalar fields and
// the records leaf and node yield, which must come in name order; st's
// own Leaves and Nodes are not read. It is the format's one encoder:
// EncodeSnapshot feeds it sorted copies, Tree.persist its maps.
func appendSnapshot(b []byte, st TreeState, nLeaves int, leaf func(int) LeafRecord, nNodes int, node func(int) NodeRecord) ([]byte, error) {
	if nLeaves > math.MaxUint16 {
		return nil, fmt.Errorf("shard: %d leaves exceed snapshot format", nLeaves)
	}
	if nNodes > math.MaxUint32 {
		return nil, fmt.Errorf("shard: %d nodes exceed snapshot format", nNodes)
	}

	start := len(b)
	b = append(b, snapMagic...)
	b = append(b, snapVersion)
	b = binary.BigEndian.AppendUint64(b, st.Seed)
	b = binary.BigEndian.AppendUint32(b, uint32(st.Vnodes))
	b = binary.BigEndian.AppendUint64(b, st.Epoch)
	b = binary.BigEndian.AppendUint64(b, st.Rebalances)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(st.Budget))
	var flags byte
	if st.Infeasible {
		flags |= 1
	}
	b = append(b, flags)

	b = binary.BigEndian.AppendUint16(b, uint16(nLeaves))
	var err error
	for i := 0; i < nLeaves; i++ {
		l := leaf(i)
		if b, err = appendString(b, l.Name); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(l.Budget))
		var lf byte
		if l.Infeasible {
			lf |= 1
		}
		b = append(b, lf)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(nNodes))
	for i := 0; i < nNodes; i++ {
		n := node(i)
		if b, err = appendString(b, n.Name); err != nil {
			return nil, err
		}
		if b, err = appendString(b, n.Addr); err != nil {
			return nil, err
		}
		if b, err = appendString(b, n.Owner); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint32(b, n.ID)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:])), nil
}

// snapReader walks an encoded snapshot with bounds checking.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("shard: snapshot truncated at byte %d", r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *snapReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *snapReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *snapReader) str() string {
	n := int(r.u16())
	if b := r.take(n); b != nil {
		return string(b)
	}
	return ""
}

// DecodeSnapshot unpacks and validates an encoded snapshot: magic,
// version, CRC, exact length, and canonical (sorted, duplicate-free)
// ordering — a snapshot that decodes is one EncodeSnapshot could have
// produced.
func DecodeSnapshot(b []byte) (TreeState, error) {
	if len(b) < len(snapMagic)+1+4 {
		return TreeState{}, fmt.Errorf("shard: snapshot of %d bytes", len(b))
	}
	if string(b[:len(snapMagic)]) != snapMagic {
		return TreeState{}, fmt.Errorf("shard: bad snapshot magic")
	}
	if b[len(snapMagic)] != snapVersion {
		return TreeState{}, fmt.Errorf("shard: unsupported snapshot version %d", b[len(snapMagic)])
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.BigEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return TreeState{}, fmt.Errorf("shard: snapshot crc mismatch: got %#x want %#x", got, want)
	}

	r := &snapReader{b: body, off: len(snapMagic) + 1}
	st := TreeState{
		Seed:       r.u64(),
		Vnodes:     int(r.u32()),
		Epoch:      r.u64(),
		Rebalances: r.u64(),
		Budget:     math.Float64frombits(r.u64()),
	}
	st.Infeasible = len(r.take(1)) == 1 && r.b[r.off-1]&1 != 0

	nLeaves := int(r.u16())
	for i := 0; i < nLeaves && r.err == nil; i++ {
		l := LeafRecord{Name: r.str(), Budget: math.Float64frombits(r.u64())}
		if f := r.take(1); f != nil {
			l.Infeasible = f[0]&1 != 0
		}
		st.Leaves = append(st.Leaves, l)
	}
	nNodes := int(r.u32())
	for i := 0; i < nNodes && r.err == nil; i++ {
		st.Nodes = append(st.Nodes, NodeRecord{
			Name: r.str(), Addr: r.str(), Owner: r.str(), ID: r.u32(),
		})
	}
	if r.err != nil {
		return TreeState{}, r.err
	}
	if r.off != len(body) {
		return TreeState{}, fmt.Errorf("shard: %d trailing snapshot bytes", len(body)-r.off)
	}
	for i := 1; i < len(st.Leaves); i++ {
		if st.Leaves[i-1].Name >= st.Leaves[i].Name {
			return TreeState{}, fmt.Errorf("shard: snapshot leaves not canonical at %d", i)
		}
	}
	leafSet := make(map[string]bool, len(st.Leaves))
	for _, l := range st.Leaves {
		leafSet[l.Name] = true
	}
	for i, n := range st.Nodes {
		if i > 0 && st.Nodes[i-1].Name >= n.Name {
			return TreeState{}, fmt.Errorf("shard: snapshot nodes not canonical at %d", i)
		}
		if !leafSet[n.Owner] {
			return TreeState{}, fmt.Errorf("shard: node %q owned by unknown leaf %q", n.Name, n.Owner)
		}
	}
	return st, nil
}

// scalars is the shard map's fixed-size part. Callers hold t.mu.
func (t *Tree) scalars() TreeState {
	return TreeState{
		Seed:       t.seed,
		Vnodes:     t.vnodes,
		Epoch:      t.epoch,
		Rebalances: t.rebalances,
		Budget:     t.budget,
		Infeasible: t.infeasible,
	}
}

func (t *Tree) leafRecord(name string) LeafRecord {
	ls := t.leaves[name]
	return LeafRecord{Name: name, Budget: ls.budget, Infeasible: ls.infeasible}
}

func (t *Tree) nodeRecord(name string) NodeRecord {
	info := t.nodes[name]
	return NodeRecord{Name: name, Addr: info.Addr, Owner: t.owners[name], ID: info.ID}
}

// State exposes the current shard map (for status surfaces and tests).
func (t *Tree) State() TreeState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.scalars()
	for _, name := range t.memberNames() {
		st.Leaves = append(st.Leaves, t.leafRecord(name))
	}
	for _, name := range t.nodeNames() {
		st.Nodes = append(st.Nodes, t.nodeRecord(name))
	}
	return st
}

// encode packs the shard map straight from the tree into b: the bytes
// EncodeSnapshot(t.State()) gives, without building the state. Callers
// hold t.mu.
func (t *Tree) encode(b []byte) ([]byte, error) {
	leaves, nodes := t.memberNames(), t.nodeNames()
	return appendSnapshot(b, t.scalars(),
		len(leaves), func(i int) LeafRecord { return t.leafRecord(leaves[i]) },
		len(nodes), func(i int) NodeRecord { return t.nodeRecord(nodes[i]) })
}

// persist rewrites the snapshot atomically (write-temp + rename), from
// a buffer the tree keeps between mutations. Callers hold t.mu; a ""
// snapPath disables persistence.
func (t *Tree) persist() error {
	if t.snapPath == "" {
		return nil
	}
	b, err := t.encode(t.snapBuf[:0])
	if err != nil {
		return err
	}
	t.snapBuf = b
	tmp := t.snapPath + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, t.snapPath)
}

// LoadSnapshot reads and decodes a persisted shard map.
func LoadSnapshot(path string) (TreeState, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return TreeState{}, err
	}
	return DecodeSnapshot(b)
}

// NewTreeFromState rebuilds an aggregator from a restored shard map.
// Every leaf starts unattached (mgr nil): the caller configures the
// tree and then calls Rebind, which attaches the managers that survived
// and seizes the rest.
// Ownership, epochs and budgets resume exactly where the snapshot left
// them — in particular the fencing epoch, so the restarted aggregator's
// first handoff still outranks every pre-restart writer.
func NewTreeFromState(st TreeState, transport BatchTransport, snapPath string) (*Tree, error) {
	t := NewTree(st.Seed, st.Vnodes, transport, snapPath)
	t.epoch = st.Epoch
	if t.epoch == 0 {
		t.epoch = 1
	}
	t.rebalances = st.Rebalances
	t.budget = st.Budget
	t.infeasible = st.Infeasible
	for _, l := range st.Leaves {
		t.leaves[l.Name] = &leafState{name: l.Name, budget: l.Budget, infeasible: l.Infeasible}
	}
	for _, n := range st.Nodes {
		if _, ok := t.leaves[n.Owner]; !ok {
			return nil, fmt.Errorf("shard: node %q owned by unknown leaf %q", n.Name, n.Owner)
		}
		t.nodes[n.Name] = NodeInfo{Name: n.Name, Addr: n.Addr, ID: n.ID}
		t.owners[n.Name] = n.Owner
	}
	t.ring.SetLeaves(t.memberNames())
	return t, nil
}

// SnapshotPathIn names the aggregator snapshot inside a state dir.
func SnapshotPathIn(dir string) string { return filepath.Join(dir, "shardmap.snap") }

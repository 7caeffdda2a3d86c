// Journal replication: the primary manager's store streams every
// applied record to a hot-standby, so a failover promotes a state dir
// that is (up to the acknowledged cursor) a byte-faithful copy of the
// primary's intent.
//
// The session protocol is deliberately tiny and reuses the journal's
// crc32-framed JSON lines as its wire format:
//
//	standby → primary  HELLO{gen, seq}   resume claim: "I hold your
//	                                     incarnation gen up to seq"
//	primary → standby  SNAP{gen, seq, state}  full resync baseline
//	primary → standby  REC{gen, seq, rec}     one journal record
//	standby → primary  ACK{seq}               cursor acknowledgement
//
// A resume claim is honoured when the generation matches and the
// cursor is still inside the primary's retained record ring; anything
// else — first contact, a restarted primary (new gen), or a cursor
// that fell behind the ring — degrades to a full snapshot. The standby
// applies records through Store.Apply, so the replicated journal is
// fsync'd line-framed records with the exact torn-tail recovery rules
// of the primary's own crash path.
//
// The core (Feed, Replica) is pump-driven and transport-free: the
// chaos harness drives it tick-by-tick for bit-identical replays, and
// repl_net.go wraps it in TCP for production dcmd.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ReplRetain is how many applied records the primary keeps for resume;
// a standby whose cursor lags further takes a full snapshot instead.
const ReplRetain = 1024

// Replication frame kinds.
const (
	ReplHello = "hello"
	ReplSnap  = "snap"
	ReplRec   = "rec"
	ReplAck   = "ack"
)

// ReplFrame is one replication protocol message.
type ReplFrame struct {
	Kind string `json:"kind"`
	// Gen identifies the primary store incarnation the frame belongs
	// to; records from different generations never interleave.
	Gen uint64 `json:"gen,omitempty"`
	// Seq is the record cursor: for REC the record's sequence number,
	// for SNAP the sequence the snapshot includes up to, for HELLO the
	// standby's resume claim, for ACK the highest contiguous sequence
	// the standby has durably applied.
	Seq   uint64  `json:"seq,omitempty"`
	Rec   *Record `json:"rec,omitempty"`
	State *State  `json:"state,omitempty"`
}

// EncodeReplFrame formats f with the journal's crc32 line framing.
func EncodeReplFrame(f ReplFrame) ([]byte, error) {
	b, err := appendReplFrame(append(make([]byte, 0, 256), lineHeader...), &f)
	if err != nil {
		return nil, fmt.Errorf("store: encoding repl frame: %w", err)
	}
	return sealLine(b), nil
}

// DecodeReplFrame parses one framed replication line (without or with
// its trailing newline), verifying the checksum.
func DecodeReplFrame(line string) (ReplFrame, bool) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	payload, ok := unframeLine(line)
	if !ok {
		return ReplFrame{}, false
	}
	var f ReplFrame
	if err := json.Unmarshal(payload, &f); err != nil {
		return ReplFrame{}, false
	}
	if f.Kind != ReplHello && f.Kind != ReplSnap && f.Kind != ReplRec && f.Kind != ReplAck {
		return ReplFrame{}, false
	}
	return f, true
}

// SetGen stamps this store incarnation's replication generation. A
// primary must pick a value no store lifetime has ever served before,
// so standbys that replicated from an earlier incarnation resync
// rather than resume into a diverged log. Every promotion, in dcmd and
// in the chaos harness alike, stamps through SetGenForEpoch
// (daemon.Promote); SetGen is the store tests' primitive.
func (s *Store) SetGen(g uint64) {
	s.mu.Lock()
	s.gen = g
	s.mu.Unlock()
}

// genIncarnationBits is the width of the incarnation field inside a
// generation built by SetGenForEpoch; the fencing epoch fills the
// high bits.
const genIncarnationBits = 32

// SetGenForEpoch stamps a generation unique to this (epoch,
// incarnation) pair: the lease epoch in the high bits, the state
// dir's durable open counter in the low. Epochs are unique per grant
// across an HA pair (the flocked lease bumps on every change of
// holder), and the incarnation is unique per Open of this dir, so no
// two primary lifetimes ever share a generation — not even the same
// member crash-restarting inside its own lease TTL, whose live
// renewal preserves the epoch while the store's record sequence
// resets. A standby resuming across either boundary renegotiates from
// a snapshot instead of splicing incarnations.
func (s *Store) SetGenForEpoch(epoch uint64) {
	s.mu.Lock()
	s.gen = epoch<<genIncarnationBits | s.inc&(1<<genIncarnationBits-1)
	s.mu.Unlock()
}

// Gen returns the replication generation (zero until SetGen).
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Seq returns how many records this incarnation has applied.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// replRetainsLocked reports whether every record after cursor is still
// in the ring; false (cursor ahead of seq, or evicted) means the
// session must fall back to a snapshot.
func (s *Store) replRetainsLocked(cursor uint64) bool {
	return cursor <= s.seq && s.seq-cursor <= ReplRetain
}

// ResetTo atomically replaces the store's state with a replicated
// snapshot: the new state is written as the on-disk snapshot and the
// journal truncated, exactly as a compaction would. Used by a standby
// taking a full resync.
func (s *Store) ResetTo(state State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	s.state = state.clone()
	return s.compactLocked()
}

// Feed is the primary-side half of one replication session: it turns
// a standby's HELLO into the frame stream that brings it up to date,
// then tracks its acknowledgement cursor. One Feed per standby
// connection; a reconnect makes a new Feed from a fresh HELLO.
type Feed struct {
	st *Store

	mu       sync.Mutex
	claimGen uint64
	claimSeq uint64
	synced   bool
	cursor   uint64 // next frames start after this sequence
	acked    uint64
}

// NewFeed starts a session from the standby's HELLO resume claim.
func (s *Store) NewFeed(hello ReplFrame) *Feed {
	return &Feed{st: s, claimGen: hello.Gen, claimSeq: hello.Seq}
}

// Pending returns the next at-most-max frames for the standby. The
// first call decides between resuming from the claimed cursor and a
// full snapshot; a cursor that falls out of the retained ring
// mid-session (the standby stalled through a write burst) degrades to
// a fresh snapshot rather than an error.
func (f *Feed) Pending(max int) ([]ReplFrame, error) {
	if max <= 0 {
		max = ReplRetain
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.st
	s.mu.Lock()
	defer s.mu.Unlock()
	if !f.synced {
		if s.gen != 0 && f.claimGen == s.gen && s.replRetainsLocked(f.claimSeq) {
			f.cursor = f.claimSeq
		} else {
			f.synced = true
			return []ReplFrame{f.snapLocked()}, nil
		}
		f.synced = true
	}
	if !s.replRetainsLocked(f.cursor) {
		return []ReplFrame{f.snapLocked()}, nil
	}
	n := min(s.seq-f.cursor, uint64(max))
	frames := make([]ReplFrame, 0, n)
	for q := f.cursor + 1; q <= f.cursor+n; q++ {
		r := s.recent[(q-1)%ReplRetain]
		frames = append(frames, ReplFrame{Kind: ReplRec, Gen: s.gen, Seq: q, Rec: &r})
	}
	f.cursor += n
	return frames, nil
}

// snapLocked builds a full-resync frame and advances the session
// cursor past it. Both f.mu and f.st.mu must be held.
func (f *Feed) snapLocked() ReplFrame {
	snap := f.st.state.clone()
	f.cursor = f.st.seq
	return ReplFrame{Kind: ReplSnap, Gen: f.st.gen, Seq: f.st.seq, State: &snap}
}

// Ack records the standby's acknowledgement cursor.
func (f *Feed) Ack(fr ReplFrame) {
	if fr.Kind != ReplAck {
		return
	}
	f.mu.Lock()
	if fr.Seq > f.acked {
		f.acked = fr.Seq
	}
	f.mu.Unlock()
}

// Lag reports how many applied records the standby has yet to
// acknowledge.
func (f *Feed) Lag() uint64 {
	f.mu.Lock()
	acked := f.acked
	f.mu.Unlock()
	seq := f.st.Seq()
	if acked > seq {
		return 0
	}
	return seq - acked
}

// Replica is the standby-side half: it applies the primary's stream
// into a local store (journaled and fsync'd per record, so the
// replicated log inherits the crash-recovery torn-tail rules) and
// produces cursor acknowledgements.
type Replica struct {
	st *Store

	mu     sync.Mutex
	gen    uint64
	cursor uint64
	// metaPath, when non-empty, is where progress is persisted so a
	// restarted standby process recovers its resume point
	// (RecoverReplica). Empty for in-memory replicas (tests, chaos).
	metaPath string
}

// NewReplica starts a replica with no resume claim: the first HELLO
// carries gen 0, which the primary answers with a full snapshot.
func NewReplica(st *Store) *Replica { return &Replica{st: st} }

// NewReplicaAt resumes a replica whose local store already holds the
// primary's generation gen up to cursor — a standby process restart
// that recovered its replicated journal. An overstated cursor is the
// caller's bug; an understated one only costs re-sent (idempotently
// duplicate-dropped) records.
func NewReplicaAt(st *Store, gen, cursor uint64) *Replica {
	return &Replica{st: st, gen: gen, cursor: cursor}
}

// ReplicaMetaFileName is the sidecar recording a standby's replication
// resume point inside its state dir.
const ReplicaMetaFileName = "replica.json"

// replicaMeta is the persisted resume point.
type replicaMeta struct {
	Gen    uint64 `json:"gen"`
	Cursor uint64 `json:"cursor"`
}

// RecoverReplica resumes a replica over a reopened standby state dir:
// the {gen, cursor} sidecar persisted alongside earlier progress
// becomes the resume claim, so a restarted standby both skips a full
// resync when the primary still runs and — because its generation is
// non-zero — counts as synced enough to contend for the lease when
// the primary is gone. A missing or corrupt sidecar starts from
// scratch (gen 0 → full snapshot). The sidecar is only ever written
// after the record it names was fsync'd into the local journal, so
// the recovered cursor never overstates durable state; it may
// understate it (per-record writes are best-effort), which merely
// re-sends a suffix of full-overwrite records that replays
// idempotently.
func RecoverReplica(st *Store, dir string) *Replica {
	r := &Replica{st: st, metaPath: filepath.Join(dir, ReplicaMetaFileName)}
	if b, err := os.ReadFile(r.metaPath); err == nil {
		var m replicaMeta
		if json.Unmarshal(b, &m) == nil {
			r.gen, r.cursor = m.Gen, m.Cursor
		}
	}
	return r
}

// ClearReplicaMeta removes dir's replication resume sidecar. A standby
// promoting to primary must drop its claim: its store is about to
// journal records of its own under a new generation, and carrying the
// old claim into a later standby lifetime could splice that local
// history into a resumed session.
func ClearReplicaMeta(dir string) error {
	if err := os.Remove(filepath.Join(dir, ReplicaMetaFileName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// saveMetaLocked persists the resume point (r.mu held). Best-effort by
// design: a lost or stale sidecar can only understate progress or miss
// a generation change, both of which degrade to re-sent records or a
// full resync — never divergence — so failures are not propagated into
// the replication session.
func (r *Replica) saveMetaLocked() {
	if r.metaPath == "" {
		return
	}
	b, err := json.Marshal(replicaMeta{Gen: r.gen, Cursor: r.cursor})
	if err != nil {
		return
	}
	dir := filepath.Dir(r.metaPath)
	tmp, err := os.CreateTemp(dir, replicaTmp)
	if err != nil {
		return
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmpName)
		return
	}
	if os.Rename(tmpName, r.metaPath) != nil {
		os.Remove(tmpName)
	}
}

// Hello builds the resume claim that opens a session.
func (r *Replica) Hello() ReplFrame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplFrame{Kind: ReplHello, Gen: r.gen, Seq: r.cursor}
}

// Handle applies one primary frame and returns the acknowledgement to
// send back (nil for frames that carry no progress). A generation
// mismatch or sequence gap is an error: the session is broken and the
// standby must reconnect with a fresh Hello.
func (r *Replica) Handle(fr ReplFrame) (*ReplFrame, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch fr.Kind {
	case ReplSnap:
		if fr.State == nil {
			return nil, fmt.Errorf("store: snap frame without state")
		}
		if err := r.st.ResetTo(*fr.State); err != nil {
			return nil, err
		}
		r.gen, r.cursor = fr.Gen, fr.Seq
		r.saveMetaLocked()
		return &ReplFrame{Kind: ReplAck, Seq: r.cursor}, nil
	case ReplRec:
		if fr.Gen != r.gen {
			return nil, fmt.Errorf("store: repl generation changed %d -> %d without snapshot", r.gen, fr.Gen)
		}
		if fr.Seq <= r.cursor {
			// Duplicate from an understated resume; already applied.
			return &ReplFrame{Kind: ReplAck, Seq: r.cursor}, nil
		}
		if fr.Seq != r.cursor+1 {
			return nil, fmt.Errorf("store: repl sequence gap: have %d, got %d", r.cursor, fr.Seq)
		}
		if fr.Rec == nil {
			return nil, fmt.Errorf("store: rec frame without record")
		}
		if err := r.st.Apply(*fr.Rec); err != nil {
			return nil, err
		}
		r.cursor = fr.Seq
		r.saveMetaLocked()
		return &ReplFrame{Kind: ReplAck, Seq: r.cursor}, nil
	default:
		return nil, fmt.Errorf("store: unexpected repl frame kind %q", fr.Kind)
	}
}

// Gen returns the primary generation the replica is tracking.
func (r *Replica) Gen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Cursor returns the highest contiguous sequence applied.
func (r *Replica) Cursor() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cursor
}

// ReplayFrom folds records onto a copy of base — the state a replica
// must hold after applying them. Exported for the chaos harness's
// replica_convergence check.
func ReplayFrom(base State, records []Record) State {
	st := base.clone()
	if st.Nodes == nil {
		st.Nodes = make(map[string]NodeRecord)
	}
	for _, r := range records {
		st.apply(r)
	}
	return st
}

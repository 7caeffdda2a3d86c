// Package store persists the DCM manager's desired state — the node
// registry, per-node capping policies, and the active group budget —
// across crashes. Real DCM keeps its policies in a database for the
// same reason: the manager is the source of truth for operator intent,
// and a restart that forgets every cap leaves the fleet uncapped (or a
// rebooted BMC uncapped forever, since polling alone never re-pushes).
//
// The design is the classic snapshot-plus-journal pair:
//
//   - snapshot.json holds a full State as compact JSON with sorted
//     node names, written atomically (temp file in the same directory,
//     fsync, rename, directory fsync).
//   - journal.log is append-only; each line is a crc32-prefixed JSON
//     record, fsync'd per append. Replay tolerates a torn or corrupt
//     tail — the signature of a crash mid-append — by truncating the
//     journal at the first bad line and keeping everything before it.
//
// Apply mutates the in-memory State and journals the mutation; once
// the journal holds as many records as the state has nodes (and at
// least SnapshotEvery) it is folded into a fresh snapshot and
// truncated, so an append costs O(1) amortised at any fleet size.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nodecap/internal/telemetry"
)

const (
	snapshotFile    = "snapshot.json"
	journalFile     = "journal.log"
	incarnationFile = "incarnation"

	// Temp files the dir's atomic writes go through on their way to a
	// rename, as os.CreateTemp patterns; Open globs the same patterns to
	// remove the ones a crash stranded.
	snapshotTmp    = "snapshot-*.tmp"
	incarnationTmp = "incarnation-*.tmp"
	replicaTmp     = "replica-*.tmp"

	// DefaultSnapshotEvery is the shortest journal (in records) that
	// triggers automatic compaction.
	DefaultSnapshotEvery = 256
)

// NodeRecord is the durable desired state for one managed node.
type NodeRecord struct {
	Addr        string  `json:"addr"`
	MinCapWatts float64 `json:"min_cap_watts,omitempty"`
	MaxCapWatts float64 `json:"max_cap_watts,omitempty"`
	// HaveCap distinguishes "no policy ever set" from "cap disabled":
	// both have CapEnabled false, but only the latter is re-pushed.
	HaveCap    bool    `json:"have_cap,omitempty"`
	CapEnabled bool    `json:"cap_enabled,omitempty"`
	CapWatts   float64 `json:"cap_watts,omitempty"`
}

// BudgetRecord is the durable auto-balance configuration.
type BudgetRecord struct {
	Watts    float64       `json:"watts"`
	Group    []string      `json:"group"`
	Interval time.Duration `json:"interval,omitempty"`
}

// State is the full durable manager state.
type State struct {
	Nodes  map[string]NodeRecord `json:"nodes"`
	Budget *BudgetRecord         `json:"budget,omitempty"`
}

func (s *State) clone() State {
	out := State{Nodes: make(map[string]NodeRecord, len(s.Nodes))}
	for k, v := range s.Nodes {
		out.Nodes[k] = v
	}
	if s.Budget != nil {
		b := *s.Budget
		b.Group = append([]string(nil), s.Budget.Group...)
		out.Budget = &b
	}
	return out
}

// Record ops.
const (
	OpAddNode    = "add"
	OpRemoveNode = "remove"
	OpSetCap     = "setcap"
	OpBudget     = "budget"
)

// Record is one journaled mutation.
type Record struct {
	Op   string `json:"op"`
	Name string `json:"name,omitempty"`
	// Node carries the full record for OpAddNode and OpSetCap.
	Node *NodeRecord `json:"node,omitempty"`
	// Budget carries the configuration for OpBudget; nil clears it.
	Budget *BudgetRecord `json:"budget,omitempty"`
}

// apply folds one record into s. Unknown ops are ignored so an old
// binary can replay a newer journal's prefix.
func (s *State) apply(r Record) {
	switch r.Op {
	case OpAddNode, OpSetCap:
		if r.Name == "" || r.Node == nil {
			return
		}
		s.Nodes[r.Name] = *r.Node
	case OpRemoveNode:
		delete(s.Nodes, r.Name)
	case OpBudget:
		s.Budget = r.Budget
	}
}

// journalWriter is what the store asks of its journal: an *os.File opened
// O_APPEND, or in tests a writer that fails mid-line.
type journalWriter interface {
	Write([]byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// Store is a crash-safe State holder. Safe for concurrent use.
type Store struct {
	// SnapshotEvery is the shortest journal that triggers automatic
	// compaction on Apply (see compactAtLocked); ≤ 0 means
	// DefaultSnapshotEvery.
	SnapshotEvery int

	mu         sync.Mutex
	dir        string
	state      State
	journal    journalWriter
	journalLen int64  // bytes of whole, acknowledged lines in the journal
	line       []byte // Apply's encode buffer, reused across appends
	pending    int    // records in the journal since the last snapshot
	// failed is set when a failed append could not be rolled back: the
	// journal may end in a torn line that would swallow every later
	// record on replay, so Apply refuses from then on.
	failed   error
	closed   bool
	nosync   bool // SetSync(false): skip the per-record fsync
	replayed int  // journal records recovered by Open (tests)
	// inc is this open's incarnation: a per-dir counter durably bumped
	// by every Open, so no two lifetimes of the same state dir share a
	// value. SetGenForEpoch folds it into the replication generation.
	inc uint64

	// Replication source state (see repl.go): gen identifies this
	// store incarnation, seq counts records applied in it, and recent
	// retains the tail of applied records so a reconnecting standby can
	// resume from its cursor instead of taking a full snapshot. recent is
	// a ring addressed by sequence number — record q lives in slot
	// (q-1) % ReplRetain, so the window is always (seq-ReplRetain, seq] —
	// that grows to ReplRetain slots as the first records arrive.
	gen    uint64
	seq    uint64
	recent []Record

	// Telemetry sinks (SetTelemetry); nil-safe when unwired.
	appends     *telemetry.Counter
	compactions *telemetry.Counter
	trace       *telemetry.Trace
}

// SetTelemetry wires journal-append and compaction metrics plus the
// decision trace into the store. Either argument may be nil.
func (s *Store) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Trace) {
	s.mu.Lock()
	s.appends = reg.Counter("store_journal_appends_total")
	s.compactions = reg.Counter("store_compactions_total")
	s.trace = tr
	s.mu.Unlock()
}

// Open loads (or initialises) the store rooted at dir, creating the
// directory if needed. A torn journal tail is truncated; everything
// before it is recovered.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := State{Nodes: make(map[string]NodeRecord)}
	if b, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err == nil {
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("store: corrupt snapshot %s: %w",
				filepath.Join(dir, snapshotFile), err)
		}
		if st.Nodes == nil {
			st.Nodes = make(map[string]NodeRecord)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}

	// A kill between CreateTemp and Rename strands a (state-sized) temp
	// file no later run would touch. Best-effort: a stale temp that
	// cannot be removed is clutter, not a reason to stay down.
	for _, pat := range []string{snapshotTmp, incarnationTmp, replicaTmp} {
		stale, _ := filepath.Glob(filepath.Join(dir, pat))
		for _, path := range stale {
			os.Remove(path)
		}
	}

	inc, err := bumpIncarnation(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, state: st, inc: inc}
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	j, err := os.OpenFile(filepath.Join(dir, journalFile),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.journal = j
	return s, nil
}

// bumpIncarnation durably increments dir's open counter and returns
// the new value. Written with the snapshot's atomic-rename discipline
// before the store is usable, so a crash can lose a bump (the next
// Open redoes it) but can never roll the counter back past a value a
// previous lifetime already returned.
func bumpIncarnation(dir string) (uint64, error) {
	path := filepath.Join(dir, incarnationFile)
	var n uint64
	if b, err := os.ReadFile(path); err == nil {
		if _, perr := fmt.Sscanf(strings.TrimSpace(string(b)), "%d", &n); perr != nil {
			// Renames are atomic, so an unparseable counter is external
			// damage; reusing an incarnation risks splicing replicated
			// logs, so refuse rather than guess.
			return 0, fmt.Errorf("store: corrupt incarnation file %s: %q", path, b)
		}
	} else if !os.IsNotExist(err) {
		return 0, fmt.Errorf("store: %w", err)
	}
	n++
	tmp, err := os.CreateTemp(dir, incarnationTmp)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := fmt.Fprintf(tmp, "%d\n", n); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: writing incarnation: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return n, nil
}

// Incarnation reports this open's durable per-dir counter (see
// bumpIncarnation); zero only for a Store built without Open.
func (s *Store) Incarnation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc
}

// replayJournal folds journal records into s.state, truncating the
// file at the first torn or corrupt line. Only newline-terminated
// lines are replayed: a final line missing its '\n' is discarded even
// when its checksum happens to verify, because the next append would
// concatenate onto it and corrupt both records' framing.
func (s *Store) replayJournal() error {
	path := filepath.Join(s.dir, journalFile)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}

	var good int64 // byte offset of the end of the last valid line
	rest := b
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break // unterminated tail (torn append)
		}
		r, ok := decodeLine(string(rest[:i]))
		if !ok {
			break // bad checksum or invalid JSON
		}
		s.state.apply(r)
		s.pending++
		s.replayed++
		good += int64(i) + 1
		rest = rest[i+1:]
	}
	// Anything past `good` is discarded.
	if int64(len(b)) > good {
		if err := os.Truncate(path, good); err != nil {
			return fmt.Errorf("store: truncating torn journal: %w", err)
		}
	}
	s.journalLen = good
	return nil
}

// unframeLine verifies a framed line's checksum and returns its JSON
// payload (without the trailing newline).
func unframeLine(line string) ([]byte, bool) {
	sum, payload, ok := strings.Cut(line, " ")
	if !ok || len(sum) != 8 {
		return nil, false
	}
	var want uint32
	if _, err := fmt.Sscanf(sum, "%08x", &want); err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE([]byte(payload)) != want {
		return nil, false
	}
	return []byte(payload), true
}

// decodeLine parses one journal line, verifying its checksum.
func decodeLine(line string) (Record, bool) {
	payload, ok := unframeLine(line)
	if !ok {
		return Record{}, false
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, false
	}
	return r, true
}

// State returns a deep copy of the current state.
func (s *Store) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.clone()
}

// Replayed reports how many journal records Open recovered.
func (s *Store) Replayed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayed
}

// SetSync toggles the per-record journal fsync (on by default).
// Turning it off trades the power-loss durability guarantee for append
// throughput: the bytes still reach the file (readable by any
// subsequent Open, including after a process kill), but are not forced
// to stable storage per record. The chaos harness disables it —
// simulated crashes reread the file rather than cutting power, and
// fleet-scale runs would otherwise spend their wall-clock budget in
// fsync — while production managers leave it on.
func (s *Store) SetSync(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nosync = !on
}

// Apply folds r into the state and journals it durably (fsync before
// returning). Once the journal is compactAtLocked records long it
// compacts.
func (s *Store) Apply(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.failed != nil {
		return s.failed
	}
	line, err := appendRecord(append(s.line[:0], lineHeader...), &r)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line = sealLine(line)
	s.line = line // keep the (possibly regrown) buffer for the next append
	if _, err := s.journal.Write(line); err != nil {
		return s.rollbackLocked(fmt.Errorf("store: journal append: %w", err))
	}
	if !s.nosync {
		if err := s.journal.Sync(); err != nil {
			return s.rollbackLocked(fmt.Errorf("store: journal sync: %w", err))
		}
	}
	s.journalLen += int64(len(line))
	s.state.apply(r)
	s.pending++
	s.appends.Inc()
	if len(s.recent) < ReplRetain {
		s.recent = append(s.recent, r)
	} else {
		s.recent[s.seq%ReplRetain] = r
	}
	s.seq++
	if s.pending >= s.compactAtLocked() {
		return s.compactLocked()
	}
	return nil
}

// compactAtLocked is the journal length at which Apply compacts: a
// rewrite is due once the log is as large as the state it rewrites,
// and never sooner than SnapshotEvery records. A budget change over N
// nodes therefore pays one O(N) snapshot, not N/SnapshotEvery of them
// — amortised O(1) per record at any fleet size — while a crash still
// replays at most this many records.
func (s *Store) compactAtLocked() int {
	every := s.SnapshotEvery
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	return max(every, len(s.state.Nodes))
}

// rollbackLocked undoes a failed append by cutting the journal back to
// its last whole line, so the next append cannot concatenate onto a
// partial one — a joined line fails its checksum, and replay would drop
// it and every acknowledged record after it. If the cut fails too the
// store is marked failed. Returns cause either way.
func (s *Store) rollbackLocked(cause error) error {
	if err := s.journal.Truncate(s.journalLen); err != nil {
		s.failed = fmt.Errorf("store: journal unusable: %w; rolling that back: %v", cause, err)
	}
	return cause
}

// Compact folds the journal into a fresh snapshot and truncates it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}

// compactLocked writes the snapshot from a buffer it allocates and
// drops: nothing state-sized is retained between compactions.
func (s *Store) compactLocked() error {
	// ~140 bytes encode a typical node; a low guess costs one regrowth.
	b, err := appendState(make([]byte, 0, 256+160*len(s.state.Nodes)), &s.state)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, snapshotTmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, snapshotFile)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if err := s.journal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating journal: %w", err)
	}
	s.journalLen = 0
	if _, err := s.journal.Seek(0, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.compactions.Inc()
	s.trace.Append(telemetry.Event{Kind: telemetry.EvCompact, N: int64(s.pending)})
	s.pending = 0
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: dir sync: %w", err)
	}
	return nil
}

// Close compacts (so restarts load one clean snapshot) and releases
// the journal. A crash — i.e. no Close — is still safe: every Apply
// was fsync'd.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.compactLocked()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// Crash releases the journal WITHOUT the graceful-shutdown compaction,
// leaving the on-disk snapshot+journal pair exactly as a power loss
// would: the next Open must recover through replay. Idempotent; exists
// for crash-recovery drills (internal/chaos), not production paths.
func (s *Store) Crash() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.journal.Close()
}

// Replay folds a record sequence into a fresh State — the same pure
// fold Open performs, exported so recovery drills can compute the
// state a journal prefix must reproduce.
func Replay(records []Record) State {
	st := State{Nodes: make(map[string]NodeRecord)}
	for _, r := range records {
		st.apply(r)
	}
	return st
}

// JournalPath returns the journal file's location under dir.
func JournalPath(dir string) string { return filepath.Join(dir, journalFile) }

// SnapshotPath returns the snapshot file's location under dir.
func SnapshotPath(dir string) string { return filepath.Join(dir, snapshotFile) }

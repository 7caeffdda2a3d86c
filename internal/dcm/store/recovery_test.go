package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// faultyJournal is a journal whose next append fails: the Write lets
// through only the first `after` bytes (after < 0: all of them, the
// fault is then the Sync), and Truncate fails too when truncErr is set.
type faultyJournal struct {
	*os.File
	armed    bool
	after    int
	truncErr error
}

var errInjected = errors.New("injected journal fault")

func (j *faultyJournal) Write(b []byte) (int, error) {
	if !j.armed || j.after < 0 {
		return j.File.Write(b)
	}
	j.armed = false
	n, _ := j.File.Write(b[:min(j.after, len(b))])
	return n, errInjected
}

func (j *faultyJournal) Sync() error {
	if j.armed {
		j.armed = false
		return errInjected
	}
	return j.File.Sync()
}

func (j *faultyJournal) Truncate(size int64) error {
	if j.truncErr != nil {
		return j.truncErr
	}
	return j.File.Truncate(size)
}

func readJournal(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFailedAppendLeavesNoTornLine fails one append after k bytes, for
// every k in the line (and once at the fsync): the store, its journal
// and a reopen all still show the pre-failure state, and the next Apply
// is durable — it does not concatenate onto a partial line that would
// take every later record down with it on replay.
func TestFailedAppendLeavesNoTornLine(t *testing.T) {
	doomed := capRecord(1, 150)
	line, err := appendRecord([]byte(lineHeader), &doomed)
	if err != nil {
		t.Fatal(err)
	}
	line = sealLine(line)
	for k := -1; k <= len(line); k++ {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		addNode(t, s, "n0", "a:1")
		setCap(t, s, "n0", 140)
		wantState, wantJournal := s.State(), readJournal(t, dir)

		s.journal = &faultyJournal{File: s.journal.(*os.File), armed: true, after: k}
		if err := s.Apply(doomed); !errors.Is(err, errInjected) {
			t.Fatalf("k=%d: Apply = %v, want the injected fault", k, err)
		}
		if got := s.State(); !reflect.DeepEqual(got, wantState) {
			t.Fatalf("k=%d: failed Apply changed the state: %+v", k, got)
		}
		if got := readJournal(t, dir); string(got) != string(wantJournal) {
			t.Fatalf("k=%d: journal after the failed append:\n%q\nwant\n%q", k, got, wantJournal)
		}
		if got := mustOpen(t, dir).State(); !reflect.DeepEqual(got, wantState) {
			t.Fatalf("k=%d: reopened state %+v, want %+v", k, got, wantState)
		}

		setCap(t, s, "n0", 160)
		r := mustOpen(t, dir)
		if r.Replayed() != 3 || r.State().Nodes["n0"].CapWatts != 160 {
			t.Fatalf("k=%d: the Apply after the failure did not replay: %d records, n0 = %+v",
				k, r.Replayed(), r.State().Nodes["n0"])
		}
	}
}

// TestUnrecoverableAppendFailsTheStore: when the torn bytes cannot be
// cut off either, later Applies refuse rather than acknowledge records
// that would not replay.
func TestUnrecoverableAppendFailsTheStore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	addNode(t, s, "n0", "a:1")
	fj := &faultyJournal{File: s.journal.(*os.File), armed: true, after: 5, truncErr: errors.New("read-only filesystem")}
	s.journal = fj
	if err := s.Apply(capRecord(1, 150)); !errors.Is(err, errInjected) {
		t.Fatalf("Apply = %v, want the injected fault", err)
	}
	fj.truncErr = nil // the disk heals; the torn bytes are still there
	if err := s.Apply(capRecord(2, 150)); err == nil {
		t.Fatal("Apply succeeded onto a journal that ends in a torn line")
	}
	if got := mustOpen(t, dir); got.Replayed() != 1 || len(got.State().Nodes) != 1 {
		t.Errorf("reopen replayed %d records into %d nodes, want 1 and 1", got.Replayed(), len(got.State().Nodes))
	}
}

// TestOpenSweepsStaleTemps: temp files a kill between CreateTemp and
// Rename stranded are gone after Open, and the state is untouched.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	addNode(t, s, "n0", "a:1")
	setCap(t, s, "n0", 140)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	setCap(t, s, "n0", 150)
	want := s.State()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"snapshot-123.tmp", "snapshot-9.tmp", "incarnation-456.tmp", "replica-7.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"nodes":{"half":{"addr":"writ`), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	r := mustOpen(t, dir)
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Errorf("stale temp files survive Open: %v", left)
	}
	if got := r.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("state = %+v, want %+v", got, want)
	}
	if r.Incarnation() != 2 {
		t.Errorf("incarnation = %d, want 2", r.Incarnation())
	}
}

// TestReplayOverFoldedSnapshotIsIdempotent covers the other half of the
// compaction window: the new snapshot is renamed into place but the
// crash comes before the journal is truncated, so Open replays records
// the snapshot already contains.
func TestReplayOverFoldedSnapshotIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	records := []Record{
		{Op: OpAddNode, Name: "n0", Node: &NodeRecord{Addr: "a:1", MinCapWatts: 123, MaxCapWatts: 180}},
		{Op: OpAddNode, Name: "n1", Node: &NodeRecord{Addr: "b:1", MinCapWatts: 123, MaxCapWatts: 180}},
		{Op: OpSetCap, Name: "n0", Node: &NodeRecord{Addr: "a:1", MinCapWatts: 123, MaxCapWatts: 180, HaveCap: true, CapEnabled: true, CapWatts: 141.37}},
		{Op: OpBudget, Budget: &BudgetRecord{Watts: 300, Group: []string{"n0", "n1"}, Interval: time.Second}},
		{Op: OpRemoveNode, Name: "n1"},
		{Op: OpAddNode, Name: "n2", Node: &NodeRecord{Addr: "c:1"}},
		{Op: OpBudget},
		{Op: OpSetCap, Name: "n0", Node: &NodeRecord{Addr: "a:1", MinCapWatts: 123, MaxCapWatts: 180, HaveCap: true}},
	}
	for _, r := range records {
		if err := s.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	want, journal := s.State(), readJournal(t, dir)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(dir), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir)
	if r.Replayed() != len(records) {
		t.Fatalf("replayed %d records, want %d", r.Replayed(), len(records))
	}
	if got := r.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("state after replaying folded records = %+v, want %+v", got, want)
	}
}

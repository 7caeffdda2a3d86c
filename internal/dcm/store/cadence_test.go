package store

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"nodecap/internal/telemetry"
)

func capRecord(i int, watts float64) Record {
	return Record{Op: OpSetCap, Name: fmt.Sprintf("n%05d", i), Node: &NodeRecord{
		Addr: fmt.Sprintf("loop:%d", i), MinCapWatts: 122.2, MaxCapWatts: 180,
		HaveCap: true, CapEnabled: true, CapWatts: watts,
	}}
}

// TestCompactionCadence: the journal folds when it holds
// max(SnapshotEvery, nodes) records. After registering N nodes, k·N cap
// pushes cause exactly the predicted number of compactions, the journal
// never outgrows the threshold, and a crash at its longest replays
// exactly that many records into the state a pure fold predicts.
func TestCompactionCadence(t *testing.T) {
	for _, tc := range []struct{ nodes, rounds int }{
		{1, 600}, {255, 3}, {256, 3}, {257, 3}, {2500, 2},
	} {
		t.Run(fmt.Sprint(tc.nodes), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			s.SetSync(false)
			reg := telemetry.NewRegistry()
			s.SetTelemetry(reg, nil)
			compactions := reg.Counter("store_compactions_total")
			threshold := max(DefaultSnapshotEvery, tc.nodes)

			var applied []Record
			maxPending := 0
			apply := func(r Record) {
				t.Helper()
				if err := s.Apply(r); err != nil {
					t.Fatal(err)
				}
				applied = append(applied, r)
				maxPending = max(maxPending, s.pending)
			}
			for i := 0; i < tc.nodes; i++ {
				r := capRecord(i, 0)
				r.Op = OpAddNode
				apply(r)
			}
			// Registration alone compacts once, at the 256th node: from
			// then on every add grows the state as fast as the journal.
			journaled := tc.nodes
			var want uint64
			if tc.nodes >= DefaultSnapshotEvery {
				want, journaled = 1, tc.nodes-DefaultSnapshotEvery
			}
			if got := compactions.Value(); got != want {
				t.Fatalf("after registering %d nodes: %d compactions, want %d", tc.nodes, got, want)
			}

			pushes := tc.rounds * tc.nodes
			for i := 0; i < pushes; i++ {
				apply(capRecord(i%tc.nodes, 130+float64(i%20)))
			}
			want += uint64((journaled + pushes) / threshold)
			if got := compactions.Value(); got != want {
				t.Errorf("after %d pushes over %d nodes: %d compactions, want %d", pushes, tc.nodes, got, want)
			}
			if maxPending != threshold-1 {
				t.Errorf("journal peaked at %d records, want %d (one short of the threshold %d)",
					maxPending, threshold-1, threshold)
			}

			// Drive the journal to its longest and pull the plug.
			for i := 0; s.pending < threshold-1; i++ {
				apply(capRecord(i%tc.nodes, 150))
			}
			if err := s.Crash(); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(JournalPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Count(string(b), "\n"); got != threshold-1 {
				t.Fatalf("journal holds %d lines at the crash, want %d", got, threshold-1)
			}
			r := mustOpen(t, dir)
			if got := r.Replayed(); got != threshold-1 {
				t.Errorf("replayed %d records, want %d", got, threshold-1)
			}
			if got, want := r.State(), Replay(applied); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state differs from the fold of %d applied records", len(applied))
			}
		})
	}
}

// TestApplyAllocatesNothing: between compactions an append reuses the
// store's line buffer and a ring slot.
func TestApplyAllocatesNothing(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	s.SetSync(false)
	s.SnapshotEvery = 1 << 30
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = capRecord(i, 143.33333333333334)
		if err := s.Apply(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		if err := s.Apply(recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Errorf("Apply allocates %.1f times per record, want 0", avg)
	}
}

// TestReplRingMatchesSliceModel: for every cursor in and just outside
// the retained window, a fresh session's first Pending returns the same
// frames as a plain slice of everything applied — resume inside the
// window, snapshot outside — and a session whose cursor is evicted
// mid-stream degrades to a snapshot.
func TestReplRingMatchesSliceModel(t *testing.T) {
	const gen = 5
	for _, total := range []int{ReplRetain - 1, ReplRetain, ReplRetain + 1, 3*ReplRetain + 7} {
		t.Run(fmt.Sprint(total), func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			s.SetSync(false)
			s.SetGen(gen)
			all := make([]Record, total) // all[q-1] is the record with sequence q
			for i := range all {
				all[i] = capRecord(i%7, float64(i))
				if err := s.Apply(all[i]); err != nil {
					t.Fatal(err)
				}
			}
			oldest := max(0, total-ReplRetain) // lowest cursor the model can resume

			for _, maxFrames := range []int{0, 1, 100} {
				for cursor := max(0, oldest-3); cursor <= total+2; cursor++ {
					frames, err := s.NewFeed(ReplFrame{Kind: ReplHello, Gen: gen, Seq: uint64(cursor)}).Pending(maxFrames)
					if err != nil {
						t.Fatal(err)
					}
					if cursor < oldest || cursor > total {
						if len(frames) != 1 || frames[0].Kind != ReplSnap || frames[0].Gen != gen || frames[0].Seq != uint64(total) {
							t.Fatalf("cursor %d outside (%d, %d]: got %d frames, first %+v; want one snapshot",
								cursor, oldest, total, len(frames), frames)
						}
						continue
					}
					want := all[cursor:]
					if limit := maxFrames; limit > 0 && len(want) > limit {
						want = want[:limit]
					}
					if len(frames) != len(want) {
						t.Fatalf("cursor %d max %d: %d frames, want %d", cursor, maxFrames, len(frames), len(want))
					}
					for i, fr := range frames {
						if fr.Kind != ReplRec || fr.Gen != gen || fr.Seq != uint64(cursor+i+1) ||
							fr.Rec == nil || *fr.Rec != want[i] {
							t.Fatalf("cursor %d frame %d = %+v (rec %+v), want seq %d rec %+v",
								cursor, i, fr, fr.Rec, cursor+i+1, want[i])
						}
					}
				}
			}

			// Mid-session eviction: a synced session stalls while the
			// primary applies more than the ring retains.
			feed := s.NewFeed(ReplFrame{Kind: ReplHello, Gen: gen, Seq: uint64(total)})
			if frames, _ := feed.Pending(0); len(frames) != 0 {
				t.Fatalf("caught-up session got %d frames", len(frames))
			}
			for i := 0; i < ReplRetain; i++ {
				if err := s.Apply(capRecord(0, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if frames, _ := feed.Pending(0); len(frames) != ReplRetain || frames[0].Seq != uint64(total+1) {
				t.Fatalf("a cursor exactly ReplRetain behind must still resume; got %d frames", len(frames))
			}
			for i := 0; i <= ReplRetain; i++ {
				if err := s.Apply(capRecord(0, 2)); err != nil {
					t.Fatal(err)
				}
			}
			frames, _ := feed.Pending(0)
			if len(frames) != 1 || frames[0].Kind != ReplSnap || frames[0].Seq != s.Seq() {
				t.Fatalf("evicted mid-session: got %d frames, want one snapshot at seq %d", len(frames), s.Seq())
			}
		})
	}
}

package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// encodeLine is the journal line encoder as it stood before the append
// encoders replaced it — json.Marshal plus Sprintf framing — kept here
// as the oracle the new one must equal byte for byte.
func encodeLine(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)), nil
}

// checkRecordEncoding holds every encoder in encode.go to its
// encoding/json oracle for one record and the state and replication
// frames built around it.
func checkRecordEncoding(t *testing.T, r Record) {
	t.Helper()
	want, wantErr := encodeLine(r)
	got, gotErr := appendRecord([]byte(lineHeader), &r)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%+v: line encoder err %v, oracle err %v", r, gotErr, wantErr)
	}
	if wantErr != nil {
		return // NaN or ±Inf: both refuse, nothing further to compare
	}
	got = sealLine(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("journal line differs\n got %q\nwant %q", got, want)
	}
	valid := utf8.ValidString(r.Op) && utf8.ValidString(r.Name)
	if r.Node != nil {
		valid = valid && utf8.ValidString(r.Node.Addr)
	}
	if r.Budget != nil {
		for _, g := range r.Budget.Group {
			valid = valid && utf8.ValidString(g)
		}
	}
	back, ok := decodeLine(string(got[:len(got)-1]))
	if !ok {
		t.Fatalf("decodeLine rejects %q", got)
	}
	// Invalid UTF-8 is replaced on the way out, so only valid strings
	// can round-trip exactly.
	if valid && !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip: got %+v, want %+v", back, r)
	}

	st := State{Nodes: map[string]NodeRecord{}, Budget: r.Budget}
	if r.Node != nil {
		st.Nodes[r.Name] = *r.Node
		st.Nodes[r.Name+"/b"] = NodeRecord{Addr: r.Op}
		st.Nodes["a"+r.Name] = *r.Node
	}
	wantSnap, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := appendState(nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, wantSnap) {
		t.Fatalf("snapshot differs\n got %s\nwant %s", snap, wantSnap)
	}
	var stBack State
	if err := json.Unmarshal(snap, &stBack); err != nil {
		t.Fatalf("snapshot does not parse: %v\n%s", err, snap)
	}
	if valid && !reflect.DeepEqual(stBack, st) {
		t.Fatalf("snapshot round trip: got %+v, want %+v", stBack, st)
	}

	for _, fr := range []ReplFrame{
		{Kind: ReplRec, Gen: 7, Seq: 9, Rec: &r},
		{Kind: ReplSnap, Gen: 1 << 40, State: &st},
		{Kind: ReplSnap, State: &State{}},
		{Kind: ReplAck, Seq: math.MaxUint64},
	} {
		payload, err := json.Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
		got, err := EncodeReplFrame(fr)
		if err != nil || string(got) != want {
			t.Fatalf("repl frame differs (err %v)\n got %q\nwant %q", err, got, want)
		}
	}
}

// fuzzRecord builds a record from flat fuzz arguments. shape bit 0
// attaches the node, bit 1 the budget; bits 2–3 pick a nil, empty or
// comma-split budget group.
func fuzzRecord(op, name, addr string, minW, maxW, capW, watts float64,
	have, enabled bool, group string, shape uint8, interval int64) Record {
	r := Record{Op: op, Name: name}
	if shape&1 != 0 {
		r.Node = &NodeRecord{Addr: addr, MinCapWatts: minW, MaxCapWatts: maxW,
			HaveCap: have, CapEnabled: enabled, CapWatts: capW}
	}
	if shape&2 != 0 {
		r.Budget = &BudgetRecord{Watts: watts, Interval: time.Duration(interval)}
		switch shape >> 2 & 3 {
		case 1:
			r.Budget.Group = []string{}
		case 2, 3:
			r.Budget.Group = strings.Split(group, ",")
		}
	}
	return r
}

func FuzzRecordEncoding(f *testing.F) {
	hostile := "q\"uo\\te <&> \u2028 \x00\x1f\x7f \xff\xfe héllo 日本"
	f.Add(OpSetCap, "n00042", "10.0.0.42:9623", 122.2, 180.0, 143.33333333333334, 0.0, true, true, "", uint8(1), int64(0))
	f.Add(OpAddNode, "n0", "loop:0", 0.0, 0.0, 0.0, 0.0, false, false, "", uint8(1), int64(0))
	f.Add(OpRemoveNode, "n0", "", 0.0, 0.0, 0.0, 0.0, false, false, "", uint8(0), int64(0))
	f.Add(OpBudget, "", "", 0.0, 0.0, 0.0, 300.0, false, false, "n0,n1", uint8(2|2<<2), int64(time.Second))
	f.Add(OpBudget, "", "", 0.0, 0.0, 0.0, 0.0, false, false, "", uint8(2), int64(-5))
	f.Add(OpBudget, "", "", 0.0, 0.0, 0.0, 1e21, false, false, "", uint8(2|1<<2), int64(math.MinInt64))
	f.Add(hostile, hostile, hostile, 1e-8, 1e22, -1e-7, 1.5e-9, true, false, hostile+","+hostile, uint8(3|2<<2), int64(1))
	f.Add("op", "n", "a", 1e-6, 9.999999999999999e20, math.Copysign(0, -1), math.Copysign(0, -1), false, true, ",", uint8(3|2<<2), int64(7))
	f.Add("op", "n", "a", math.SmallestNonzeroFloat64, math.MaxFloat64, 123456789.0, 5e-324, true, true, "g", uint8(3|2<<2), int64(7))
	f.Add("op", "n", "a", math.Float64frombits(0x3fb999999999999a), math.Float64frombits(0x7fefffffffffffff),
		math.Float64frombits(0x0010000000000001), math.Float64frombits(0xc3e0000000000001), true, true, "g", uint8(3), int64(7))
	f.Add("op", "n", "a", math.NaN(), 1.0, 1.0, 1.0, true, true, "g", uint8(1), int64(0))
	f.Add("op", "n", "a", 1.0, 1.0, 1.0, math.Inf(-1), true, true, "g", uint8(2), int64(0))
	f.Fuzz(func(t *testing.T, op, name, addr string, minW, maxW, capW, watts float64,
		have, enabled bool, group string, shape uint8, interval int64) {
		checkRecordEncoding(t, fuzzRecord(op, name, addr, minW, maxW, capW, watts, have, enabled, group, shape, interval))
	})
}

// TestRecordEncodingDifferential runs the fuzz target's check over
// random records: plain and hostile strings, zero, integral, tiny, huge
// and random-bit floats, and every budget group shape.
func TestRecordEncodingDifferential(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(22))
	randString := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("n%05d", rng.Intn(100000))
		case 1:
			return fmt.Sprintf("10.0.%d.%d:9623", rng.Intn(256), rng.Intn(256))
		case 2:
			return ""
		}
		b := make([]byte, rng.Intn(12))
		for i := range b {
			// Skewed towards the bytes encoding/json escapes.
			b[i] = "\"\\<>&\x00\n\t\x7f\u00e9\xff\xe2\x80\xa8 az09"[rng.Intn(20)]
		}
		return string(b)
	}
	randFloat := func() float64 {
		switch rng.Intn(7) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(400) - 100)
		case 2:
			return 100 + 100*rng.Float64()
		case 3:
			return rng.NormFloat64() * 1e-8
		case 4:
			return rng.NormFloat64() * 1e22
		case 5:
			return math.Pow(10, float64(rng.Intn(60)-30)) // exactly on exponent cut-overs
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	for i := 0; i < n; i++ {
		checkRecordEncoding(t, fuzzRecord(randString(), randString(), randString(),
			randFloat(), randFloat(), randFloat(), randFloat(),
			rng.Intn(2) == 0, rng.Intn(2) == 0, randString()+","+randString(),
			uint8(rng.Intn(16)), rng.Int63n(1<<40)-1<<20))
	}
}

// TestIndentedSnapshotStillOpens: a state dir whose snapshot an earlier
// version wrote with json.MarshalIndent loads unchanged, and the next
// compaction rewrites it compactly.
func TestIndentedSnapshotStillOpens(t *testing.T) {
	want := State{
		Nodes: map[string]NodeRecord{
			"n1": {Addr: "b:1", MinCapWatts: 123, MaxCapWatts: 180, HaveCap: true, CapEnabled: true, CapWatts: 141.37},
			"n0": {Addr: "a:1", MinCapWatts: 123, MaxCapWatts: 180},
			"<":  {Addr: "h\"ost"},
		},
		Budget: &BudgetRecord{Watts: 300, Group: []string{"n0", "n1"}, Interval: time.Second},
	}
	old, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(SnapshotPath(dir), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	if got := s.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("state from indented snapshot = %+v, want %+v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	compact, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsAny(compact, "\n ") || len(compact) >= len(old) {
		t.Errorf("snapshot after Close is not compact: %s", compact)
	}
	if got := mustOpen(t, dir).State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("state from compact snapshot = %+v, want %+v", got, want)
	}
}

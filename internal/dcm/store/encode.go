package store

// Append-style JSON encoders for the store's durable and wire types.
// Each writes exactly the bytes encoding/json writes for the same value
// — field order, omitempty, float format, string escaping — so a
// journal line is byte-identical to what every earlier version wrote
// (replay, and the chaos harness's byte-offset tears, depend on it)
// and json.Unmarshal stays the one decoder: the struct tags on these
// types now serve decoding only. FuzzRecordEncoding holds every encoder
// here to json.Marshal.

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strconv"
)

// lineHeader reserves the "crc32hex " prefix of a framed line; sealLine
// fills the digits in once the payload behind it is complete.
const lineHeader = "00000000 "

// sealLine finishes the framed line in b — lineHeader followed by a
// JSON payload — as "crc32hex payloadJSON\n", the framing shared by
// journal records and replication frames.
func sealLine(b []byte) []byte { return sealLineAt(b, 0) }

// sealLineAt is sealLine for the line that starts at b[start], so a
// batch of lines can be framed one after another in one buffer.
func sealLineAt(b []byte, start int) []byte {
	sum := crc32.ChecksumIEEE(b[start+len(lineHeader):])
	for i := start + 7; i >= start; i-- {
		b[i] = "0123456789abcdef"[sum&0xf]
		sum >>= 4
	}
	return append(b, '\n')
}

func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Escapes, HTML-unsafe bytes and UTF-8 validation are
			// encoding/json's business; marshalling a string cannot fail.
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	// ES6 number-to-string, as encoding/json: %f inside [1e-6, 1e21),
	// %e outside, with "e-09" cleaned up to "e-9".
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendOptFloat appends key (`,"name":`) and f unless f is zero, the
// omitempty rule.
func appendOptFloat(dst []byte, key string, f float64) ([]byte, error) {
	if f == 0 {
		return dst, nil
	}
	return appendFloat(append(dst, key...), f)
}

func appendNode(dst []byte, n *NodeRecord) ([]byte, error) {
	dst = appendString(append(dst, `{"addr":`...), n.Addr)
	dst, err := appendOptFloat(dst, `,"min_cap_watts":`, n.MinCapWatts)
	if err != nil {
		return dst, err
	}
	if dst, err = appendOptFloat(dst, `,"max_cap_watts":`, n.MaxCapWatts); err != nil {
		return dst, err
	}
	if n.HaveCap {
		dst = append(dst, `,"have_cap":true`...)
	}
	if n.CapEnabled {
		dst = append(dst, `,"cap_enabled":true`...)
	}
	if dst, err = appendOptFloat(dst, `,"cap_watts":`, n.CapWatts); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

func appendBudget(dst []byte, b *BudgetRecord) ([]byte, error) {
	dst, err := appendFloat(append(dst, `{"watts":`...), b.Watts)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"group":`...)
	if b.Group == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, name := range b.Group {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, name)
		}
		dst = append(dst, ']')
	}
	if b.Interval != 0 {
		dst = strconv.AppendInt(append(dst, `,"interval":`...), int64(b.Interval), 10)
	}
	return append(dst, '}'), nil
}

func appendRecord(dst []byte, r *Record) ([]byte, error) {
	var err error
	dst = appendString(append(dst, `{"op":`...), r.Op)
	if r.Name != "" {
		dst = appendString(append(dst, `,"name":`...), r.Name)
	}
	if r.Node != nil {
		if dst, err = appendNode(append(dst, `,"node":`...), r.Node); err != nil {
			return dst, err
		}
	}
	if r.Budget != nil {
		if dst, err = appendBudget(append(dst, `,"budget":`...), r.Budget); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendState writes st compactly with its node names sorted — the
// snapshot file's format, and the body of a replication SNAP frame.
func appendState(dst []byte, st *State) ([]byte, error) {
	var err error
	dst = append(dst, `{"nodes":`...)
	if st.Nodes == nil {
		dst = append(dst, "null"...)
	} else {
		names := make([]string, 0, len(st.Nodes))
		for name := range st.Nodes {
			names = append(names, name)
		}
		sort.Strings(names)
		dst = append(dst, '{')
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendString(dst, name), ':')
			n := st.Nodes[name]
			if dst, err = appendNode(dst, &n); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	if st.Budget != nil {
		if dst, err = appendBudget(append(dst, `,"budget":`...), st.Budget); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func appendReplFrame(dst []byte, f *ReplFrame) ([]byte, error) {
	var err error
	dst = appendString(append(dst, `{"kind":`...), f.Kind)
	if f.Gen != 0 {
		dst = strconv.AppendUint(append(dst, `,"gen":`...), f.Gen, 10)
	}
	if f.Seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"seq":`...), f.Seq, 10)
	}
	if f.Rec != nil {
		if dst, err = appendRecord(append(dst, `,"rec":`...), f.Rec); err != nil {
			return dst, err
		}
	}
	if f.State != nil {
		if dst, err = appendState(append(dst, `,"state":`...), f.State); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateUsage = flag.Bool("update", false, "rewrite testdata/usage.txt from this build")

// TestUsageGolden holds dcmd's command line still: the help text of
// -h and the defaults of an empty command line, byte for byte against
// a file recorded before the daemon moved out of this package.
func TestUsageGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &buf); err != flag.ErrHelp {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	o, err := parseFlags(nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "defaults: %+v\n", o)
	path := filepath.Join("testdata", "usage.txt")
	if *updateUsage {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("usage drifted from %s:\n got:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

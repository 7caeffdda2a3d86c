// Command benchdiff guards the repo's hot paths against performance
// regressions: it parses `go test -bench` output, takes the median
// ns/op per benchmark (medians shrug off the odd noisy run in a
// -count=N series), and compares against the committed baseline in a
// BENCH_*.json file.
//
//	go test -run '^$' -bench 'FleetTick|MachineOpThroughput' -count=5 . | benchdiff -baseline BENCH_20.json
//
// Exit status: 0 when every baselined benchmark is within bounds,
// 1 on a regression (median slower than baseline by more than
// -max-regress, or allocs/op above a baselined alloc bound), 2 on
// harness errors (missing baseline file, no samples for a baselined
// benchmark).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineEntry is one benchmark's committed bound.
type baselineEntry struct {
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp, when present, is a hard ceiling (a zero-alloc hot
	// path that starts allocating is a regression at any speed).
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// baselineFile matches the BENCH_*.json layout: only the
// benchdiff_baseline section is read, the rest of the file is the
// human-facing record.
type baselineFile struct {
	BenchdiffBaseline struct {
		Benchmarks map[string]baselineEntry `json:"benchmarks"`
	} `json:"benchdiff_baseline"`
}

// sample is one parsed benchmark result line.
type sample struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
}

// procSuffix strips the -N GOMAXPROCS suffix Go appends to benchmark
// names (BenchmarkFleetTick-8 → BenchmarkFleetTick).
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath = fs.String("baseline", "BENCH_20.json", "baseline JSON file (benchdiff_baseline.benchmarks section)")
		input        = fs.String("input", "-", "benchmark output to check (- = stdin)")
		maxRegress   = fs.Float64("max-regress", 0.15, "fail when median ns/op exceeds baseline by more than this fraction")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	r := stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		defer f.Close()
		r = f
	}
	samples, err := parseBench(r)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		entry := base[name]
		got, ok := samples[name]
		if !ok {
			fmt.Fprintf(stderr, "benchdiff: no samples for baselined benchmark %s\n", name)
			return 2
		}
		med := medianNs(got)
		ratio := med/entry.NsPerOp - 1
		status := "ok"
		if ratio > *maxRegress {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(stdout, "%-32s baseline %12.1f ns/op  median %12.1f ns/op  %+6.1f%%  %s\n",
			name, entry.NsPerOp, med, 100*ratio, status)
		if entry.AllocsPerOp != nil {
			worst := worstAllocs(got)
			if worst > *entry.AllocsPerOp {
				fmt.Fprintf(stdout, "%-32s allocs/op %.0f exceeds baselined bound %.0f  REGRESSION\n",
					name, worst, *entry.AllocsPerOp)
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

func loadBaseline(path string) (map[string]baselineEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: %w", err)
	}
	var f baselineFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("benchdiff: parsing %s: %w", path, err)
	}
	if len(f.BenchdiffBaseline.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: %s has no benchdiff_baseline.benchmarks section", path)
	}
	return f.BenchdiffBaseline.Benchmarks, nil
}

// parseBench collects result lines from `go test -bench` output,
// grouping samples by benchmark name with the GOMAXPROCS suffix
// stripped. Non-benchmark lines (headers, PASS, ok) are ignored.
func parseBench(r io.Reader) (map[string][]sample, error) {
	out := make(map[string][]sample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		var s sample
		found := false
		// Result lines are "<name> <iters> <value> <unit> [<value> <unit>]...".
		for i := 3; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				break
			}
			switch fields[i] {
			case "ns/op":
				s.nsPerOp, found = v, true
			case "allocs/op":
				s.allocsPerOp, s.hasAllocs = v, true
			}
		}
		if found {
			out[name] = append(out[name], s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// medianNs is the median ns/op of a sample series (mean of the middle
// pair for even lengths).
func medianNs(ss []sample) float64 {
	ns := make([]float64, len(ss))
	for i, s := range ss {
		ns[i] = s.nsPerOp
	}
	sort.Float64s(ns)
	n := len(ns)
	if n%2 == 1 {
		return ns[n/2]
	}
	return (ns[n/2-1] + ns[n/2]) / 2
}

// worstAllocs is the maximum allocs/op seen; a single allocating run
// of a zero-alloc path is already a regression.
func worstAllocs(ss []sample) float64 {
	worst := 0.0
	for _, s := range ss {
		if s.hasAllocs && s.allocsPerOp > worst {
			worst = s.allocsPerOp
		}
	}
	return worst
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testBaseline = `{
  "benchdiff_baseline": {
    "benchmarks": {
      "BenchmarkFleetTick": { "ns_per_op": 100000, "allocs_per_op": 0 },
      "BenchmarkMachineOpThroughput": { "ns_per_op": 100 }
    }
  }
}`

// benchOutput fabricates go-test bench output with the given ns/op
// series (FleetTick also carries alloc columns).
func benchOutput(fleetNs []string, fleetAllocs string, opNs []string) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: nodecap\ncpu: Test CPU\n")
	for _, ns := range fleetNs {
		b.WriteString("BenchmarkFleetTick-8 \t   10000\t    " + ns + " ns/op\t  90000000 node-ticks/s\t       0 B/op\t       " + fleetAllocs + " allocs/op\n")
	}
	for _, ns := range opNs {
		b.WriteString("BenchmarkMachineOpThroughput \t 9672907\t       " + ns + " ns/op\n")
	}
	b.WriteString("PASS\nok  \tnodecap\t8.072s\n")
	return b.String()
}

func runDiff(t *testing.T, input string, extra ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	if err := os.WriteFile(path, []byte(testBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := append([]string{"-baseline", path}, extra...)
	code := run(args, strings.NewReader(input), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestWithinBoundsPasses(t *testing.T) {
	// Medians: 101000 (+1%) and 99 (-1%) — both inside 15%.
	code, out, _ := runDiff(t,
		benchOutput([]string{"99000", "101000", "105000"}, "0", []string{"98", "99", "101"}))
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "BenchmarkFleetTick") || !strings.Contains(out, "ok") {
		t.Fatalf("report missing benchmark rows:\n%s", out)
	}
}

func TestMedianShrugsOffOutlier(t *testing.T) {
	// One wild 300000 run; median of {98000, 99000, 300000} is 99000.
	code, out, _ := runDiff(t,
		benchOutput([]string{"98000", "300000", "99000"}, "0", []string{"100"}))
	if code != 0 {
		t.Fatalf("outlier failed the diff (exit %d):\n%s", code, out)
	}
}

func TestRegressionFails(t *testing.T) {
	// FleetTick median 120000 = +20% > 15%.
	code, out, _ := runDiff(t,
		benchOutput([]string{"119000", "120000", "121000"}, "0", []string{"100"}))
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("report does not flag the regression:\n%s", out)
	}
}

func TestAllocRegressionFails(t *testing.T) {
	// Fast but allocating: the zero-alloc bound is a hard ceiling.
	code, out, _ := runDiff(t,
		benchOutput([]string{"90000", "90000", "90000"}, "3", []string{"100"}))
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "allocs/op") {
		t.Fatalf("report does not name the alloc regression:\n%s", out)
	}
}

func TestMaxRegressFlagWidens(t *testing.T) {
	code, out, _ := runDiff(t,
		benchOutput([]string{"120000"}, "0", []string{"100"}), "-max-regress", "0.25")
	if code != 0 {
		t.Fatalf("+20%% failed at -max-regress 0.25 (exit %d):\n%s", code, out)
	}
}

func TestMissingBenchmarkIsHarnessError(t *testing.T) {
	// Only one of the two baselined benchmarks present: exit 2, so a
	// mis-scoped -bench regex cannot silently skip the comparison.
	code, _, errOut := runDiff(t, benchOutput([]string{"100000"}, "0", nil))
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "BenchmarkMachineOpThroughput") {
		t.Fatalf("stderr does not name the missing benchmark:\n%s", errOut)
	}
}

func TestMissingBaselineFileIsHarnessError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-baseline", filepath.Join(t.TempDir(), "nope.json")},
		strings.NewReader(""), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestInputFileFlag(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(benchOutput([]string{"100000"}, "0", []string{"100"})), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runDiff(t, "", "-input", in)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestRepoBaselineParses guards the committed BENCH_20.json: benchdiff
// must be able to load the real baseline it is wired to in CI.
func TestRepoBaselineParses(t *testing.T) {
	base, err := loadBaseline(filepath.Join("..", "..", "BENCH_20.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkFleetTick", "BenchmarkMachineOpThroughput"} {
		if _, ok := base[name]; !ok {
			t.Errorf("BENCH_20.json baseline missing %s", name)
		}
	}
}

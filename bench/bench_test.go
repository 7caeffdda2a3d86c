package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// toyRun runs one workload at smoke-test size: 64 nodes, one op, the
// smallest images.
func toyRun(t *testing.T, w workload, traceOn bool) runResult {
	t.Helper()
	e := &env{seed: 1, nproc: 2, dir: t.TempDir(), toy: true}
	if traceOn {
		e.tr = newTracer()
	}
	res, err := runWorkload(w, e, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %v", w.name, res.firstErr)
	}
	return res
}

// TestEveryWorkloadEmitsTheDeclaredMetrics is the smoke test: every
// workload runs, untraced and traced, and what it emits — before any
// zero-filling — is checked name by name and unit by unit against
// BENCHMARK.json, so a drifted or missing name fails here.
func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	declared := map[string]string{} // name → unit
	for i, d := range f.EndToEnd {
		if i >= len(endToEnd) || d.Name != endToEnd[i].name || d.Unit != endToEnd[i].unit || d.Bound != endToEnd[i].bound {
			t.Errorf("end_to_end[%d] = %+v does not match the program's table", i, d)
		}
		declared[d.Name] = d.Unit
	}
	for i, d := range f.PerLayer {
		if i >= len(perLayer) || d.Name != perLayer[i].name || d.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v does not match the program's table", i, d)
		}
		declared[d.Name] = d.Unit
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the program %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for name := range declared {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside the allowed alphabet", name)
		}
	}

	emitted := map[string]bool{}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, f.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is outside the allowed alphabet", w.name)
		}
		for _, traceOn := range []bool{false, true} {
			res := toyRun(t, w, traceOn)
			for name, v := range res.m.vals {
				if declared[name] != v.Unit {
					t.Errorf("%s emits %s in %q, BENCHMARK.json declares %q", w.name, name, v.Unit, declared[name])
				}
				emitted[name] = true
			}
			if !traceOn && len(res.m.vals) != len(endToEnd) {
				t.Errorf("%s: untraced run emits %d of %d end-to-end metrics", w.name, len(res.m.vals), len(endToEnd))
			}
			res.m.complete()
			want := len(endToEnd)
			if traceOn {
				want = len(perLayer)
			}
			if len(res.m.vals) != want {
				t.Errorf("%s: result line carries %d metrics, want %d", w.name, len(res.m.vals), want)
			}
		}
	}
	// A tail needs ten samples beyond it and an overhead needs untraced
	// ops; one toy op has neither.
	for _, name := range []string{"driver.op_ms_p95", "ipmi.exchange_us_p95", "driver.trace_overhead_pct"} {
		emitted[name] = true
	}
	for name := range declared {
		if !emitted[name] {
			t.Errorf("no workload emits %s", name)
		}
	}
}

func TestOpCountIsFixedByTheFlags(t *testing.T) {
	for _, w := range workloads {
		if a, b := w.ops(defaultSeconds), w.ops(defaultSeconds); a != b || a < 2 {
			t.Errorf("%s: %d then %d ops for the same -seconds", w.name, a, b)
		}
		if w.ops(2*defaultSeconds) <= w.ops(defaultSeconds) {
			t.Errorf("%s: doubling -seconds did not add ops", w.name)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if got := quantile(v, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := quantile(v, 0.25); got != 1.75 {
		t.Errorf("first quartile of 1..4 = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

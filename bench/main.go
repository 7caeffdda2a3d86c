// Command bench is the repository's benchmark: four long, repeatable
// workloads over the node simulator and the control plane, five gated
// end-to-end metrics, and a ladder of per-layer metrics timed from
// outside each layer. See README.md.
//
// The driver's contract: with -workload, -seed, -seconds and -trace the
// last line of standard output is one JSON object {correct, attempted,
// failed, metrics}; -trace 0 reports the end-to-end metrics, -trace 1
// the per-layer ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: paper_sweep, fleet_soak, budget_push or poll_sweep")
		seed      = flag.Int64("seed", 1, "the workload's inputs are a pure function of this seed")
		seconds   = flag.Int("seconds", defaultSeconds, "nominal length of the timed phase; fixes the op count")
		trace     = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		spansOut  = flag.String("spans", "", "with -trace 1, write every recorded span to this file as JSON")
		all       = flag.Bool("all", false, "run every workload, untraced then traced, each in its own process")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice on -seed and once on -seed+1 and compare")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	switch {
	case *selfcheck:
		if err := runSelfcheck(*seed, *seconds); err != nil {
			fatal(err)
		}
	case *all:
		if err := runAll(*seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			fatal(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
		}
		if err := runOne(w, *seed, *seconds, *trace == 1, *spansOut); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one workload in this process and prints its table, an
// info line and the result line.
func runOne(w workload, seed int64, seconds int, traceOn bool, spansOut string) error {
	dir, err := workDir(w.name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Anything the program under test puts in a temp dir stays inside
	// the checkout too.
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return err
	}

	e := &env{seed: seed, nproc: runtime.NumCPU(), dir: dir}
	if traceOn {
		e.tr = newTracer()
	}
	ops := w.ops(seconds)
	res, err := runWorkload(w, e, ops, w.warmup)
	if err != nil {
		return err
	}
	if spansOut != "" && e.tr != nil {
		if err := e.tr.writeFile(spansOut); err != nil {
			return err
		}
	}
	res.m.complete()
	res.m.table(os.Stdout, w.name)
	if res.firstErr != nil {
		fmt.Printf("first failure: %v\n", res.firstErr)
	}
	fmt.Printf(`{"info":{"workload":%q,"seed":%d,"ops":%d,"warmup":%d,"traced":%v,"gomaxprocs":%d,"calib_ms":%.3f,"noisy":%v}}`+"\n",
		w.name, seed, ops, w.warmup, traceOn, runtime.GOMAXPROCS(0), res.calibMS, res.noisy)
	fmt.Println(resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.m.vals,
	})
	return nil
}

// workDir makes a fresh directory under the checkout's build directory:
// the benchmark writes nowhere else.
func workDir(tag string) (string, error) {
	base, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, tag+"-*")
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childRun is one workload run in a process of its own, so that
// setup_s, the heap and the collector start from nothing every time.
type childRun struct {
	result resultLine
	noisy  bool
	stdout string
}

func runChild(w workload, seed int64, seconds int, traceOn bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	tr := "0"
	if traceOn {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return childRun{}, fmt.Errorf("%s seed %d trace %s: %w", w.name, seed, tr, err)
	}
	run := childRun{stdout: string(out)}
	lines := strings.Split(strings.TrimSpace(run.stdout), "\n")
	if len(lines) < 2 {
		return run, fmt.Errorf("%s: no result line", w.name)
	}
	var info struct {
		Info struct {
			Noisy bool `json:"noisy"`
		} `json:"info"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		return run, fmt.Errorf("%s: info line: %w", w.name, err)
	}
	run.noisy = info.Info.Noisy
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
		return run, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return run, nil
}

// runAll runs the four workloads, untraced then traced.
func runAll(seed int64, seconds int) error {
	var errs []error
	for _, w := range workloads {
		for _, traceOn := range []bool{false, true} {
			run, err := runChild(w, seed, seconds, traceOn)
			fmt.Print(run.stdout)
			if err == nil && !run.result.Correct {
				err = fmt.Errorf("%s: %d of %d ops failed their output check", w.name, run.result.Failed, run.result.Attempted)
			}
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// runSelfcheck runs every workload twice on seed and once on seed+1,
// untraced and traced, and checks what the benchmark promises of
// itself: no failed op, no noisy run, end-to-end metrics that agree
// within their own bounds, and counts that repeat bit for bit on equal
// seeds.
func runSelfcheck(seed int64, seconds int) error {
	var problems []string
	for _, w := range workloads {
		var e2e, layer [3]childRun
		for k, s := range []int64{seed, seed, seed + 1} {
			for _, traceOn := range []bool{false, true} {
				run, err := runChild(w, s, seconds, traceOn)
				if err != nil {
					return err
				}
				if !run.result.Correct {
					problems = append(problems, fmt.Sprintf("%s seed %d: %d ops failed", w.name, s, run.result.Failed))
				}
				if run.noisy {
					problems = append(problems, fmt.Sprintf("%s seed %d trace %v: calibration drifted, run is noisy", w.name, s, traceOn))
				}
				if traceOn {
					layer[k] = run
				} else {
					e2e[k] = run
				}
			}
		}
		for _, d := range endToEnd {
			a, b, c := e2e[0].result.Metrics[d.name].Value, e2e[1].result.Metrics[d.name].Value, e2e[2].result.Metrics[d.name].Value
			same, other := relDiff(a, b), relDiff(a, c)
			verdict := "ok"
			if same > d.bound || other > d.bound {
				verdict = "OUTSIDE BOUND"
				problems = append(problems, fmt.Sprintf("%s %s: %.6g / %.6g / %.6g differ by more than %.0f %%", w.name, d.name, a, b, c, 100*d.bound))
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %14.6g %-4s same-seed %5.2f %%  other-seed %5.2f %%  bound %2.0f %%  %s\n",
				w.name, d.name, a, b, c, d.unit, 100*same, 100*other, 100*d.bound, verdict)
		}
		for _, name := range exactMetrics {
			a, b := layer[0].result.Metrics[name].Value, layer[1].result.Metrics[name].Value
			verdict := "ok"
			if math.Float64bits(a) != math.Float64bits(b) {
				verdict = "NOT EXACT"
				problems = append(problems, fmt.Sprintf("%s %s: %v then %v on the same seed", w.name, name, a, b))
			}
			fmt.Printf("%-12s %-34s %18.12g %18.12g  %s\n", w.name, name, a, b, verdict)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Println("selfcheck passed")
	return nil
}

// relDiff is |a-b| as a share of the smaller magnitude.
func relDiff(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// processStart is when setup_s starts counting.
var processStart = time.Now()

// cycle is one workload on a built rig. The driver calls prepare, op
// and check once per op, in that order; only op is timed.
type cycle interface {
	prepare(i int) error // untimed work that gives op fresh inputs
	op(i int) error      // the timed op
	check(i int) error   // the output check
	// layers reports the workload's own per-layer metrics after the
	// timed phase of a traced run.
	layers(m *metrics, st spanStats)
	close()
}

// env is what a workload is built from.
type env struct {
	seed  int64
	nproc int
	dir   string
	toy   bool    // smoke-test sizes
	tr    *tracer // nil on the untraced run
}

// scale divides every probe's and the calibration kernel's step count:
// the smoke test only needs each to run once.
func (e *env) scale() int {
	if e.toy {
		return 50
	}
	return 1
}

type workload struct {
	name, why string
	// cycleSeconds is one cycle's nominal length (prepare + op + check)
	// on the 2-core reference host; the op count is seconds ÷
	// cycleSeconds, so it is fixed by the flags and never by the clock.
	cycleSeconds float64
	warmup       int
	build        func(e *env) (cycle, error)
}

func (w workload) ops(seconds int) int {
	return max(2, int(math.Round(float64(seconds)/w.cycleSeconds)))
}

// runResult is everything one run measured.
type runResult struct {
	attempted int
	failed    int
	firstErr  error
	noisy     bool
	calibMS   float64 // mean of the two calibration readings
	m         *metrics
}

// traced reports whether timed op i records spans in a traced run: ops
// alternate in pairs, so traced and untraced ops see the same mix of
// budget flips and the same drift, and their medians give the tracing
// overhead from one run.
func traced(i int) bool { return (i/2)%2 == 0 }

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

const mb = 1 << 20

// runWorkload builds w, warms it up, runs ops timed ops and reduces
// them. With e.tr set it is the traced run and reports the per-layer
// metrics; otherwise it reports the end-to-end ones.
func runWorkload(w workload, e *env, ops, warmup int) (runResult, error) {
	defs := endToEnd
	if e.tr != nil {
		defs = perLayer
	}
	res := runResult{m: newMetrics(defs)}

	cal, err := newCalibrator(e.scale())
	if err != nil {
		return res, fmt.Errorf("bench: calibration buffer: %w", err)
	}
	defer cal.close()

	c, err := w.build(e)
	if err != nil {
		return res, fmt.Errorf("bench: building %s: %w", w.name, err)
	}
	defer c.close()

	var (
		cpu   time.Duration
		alloc uint64
		ms    runtime.MemStats
	)
	// step runs one cycle and returns the op's wall time. With measure
	// set, CPU and allocation are read around the op alone and summed,
	// so the untimed half of a cycle does not dilute them.
	step := func(i int, measure bool) (time.Duration, error) {
		if err := c.prepare(i); err != nil {
			return 0, err
		}
		var a0 uint64
		var c0 time.Duration
		if measure {
			runtime.ReadMemStats(&ms)
			a0 = ms.TotalAlloc
			var err error
			if c0, err = cpuTime(); err != nil {
				return 0, err
			}
		}
		root := int32(-1)
		t0 := time.Now()
		if measure && traced(i) {
			root = e.tr.startOp(i)
		}
		opErr := c.op(i)
		if root >= 0 {
			e.tr.endOp(root)
		}
		d := time.Since(t0)
		if measure {
			c1, err := cpuTime()
			if err != nil {
				return 0, err
			}
			runtime.ReadMemStats(&ms)
			cpu += c1 - c0
			alloc += ms.TotalAlloc - a0
		}
		if opErr == nil {
			opErr = c.check(i)
		}
		return d, opErr
	}

	for i := -warmup; i < 0; i++ {
		if _, err := step(i, false); err != nil {
			return res, fmt.Errorf("bench: %s warm-up op %d: %w", w.name, i, err)
		}
	}
	setup := time.Since(processStart)

	calBefore := cal.run()
	var (
		wall         = make([]float64, 0, ops)
		wallTraced   []float64
		wallUntraced []float64
	)
	for i := 0; i < ops; i++ {
		d, opErr := step(i, true)
		res.attempted++
		if opErr != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("op %d: %w", i, opErr)
			}
		}
		dms := float64(d) * msPerNs
		wall = append(wall, dms)
		if e.tr != nil && traced(i) {
			wallTraced = append(wallTraced, dms)
		} else {
			wallUntraced = append(wallUntraced, dms)
		}
	}
	calAfter := cal.run()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapLive := ms.HeapAlloc

	drift := 100 * math.Abs(float64(calAfter-calBefore)) / float64(calBefore)
	res.noisy = drift > calibMaxDriftPct
	res.calibMS = float64(calBefore+calAfter) / 2 * msPerNs

	sorted := sortedCopy(wall)
	if e.tr == nil {
		res.m.set("op_ms_p50", quantile(sorted, 0.5), len(wall))
		res.m.set("cpu_ms_per_op", float64(cpu)*msPerNs/float64(ops), ops)
		res.m.set("alloc_mb_per_op", float64(alloc)/mb/float64(ops), ops)
		res.m.set("heap_live_mb", float64(heapLive)/mb, 0)
		res.m.set("setup_s", setup.Seconds(), 0)
		return res, nil
	}

	// A tail is reported only with ten samples beyond it.
	if len(wall) >= 200 {
		res.m.set("driver.op_ms_p95", quantile(sorted, 0.95), len(wall))
	}
	res.m.set("driver.op_ms_iqr", quantile(sorted, 0.75)-quantile(sorted, 0.25), len(wall))
	res.m.set("driver.ops", float64(ops), 0)
	res.m.set("driver.fail_ratio", float64(res.failed)/float64(res.attempted), res.attempted)
	res.m.set("driver.peak_rss_mb", peakRSSMB(), 0)
	res.m.set("driver.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 0)
	res.m.set("driver.calib_ms", res.calibMS, 2)
	res.m.set("driver.calib_drift_pct", drift, 0)
	if len(wallUntraced) > 0 {
		res.m.set("driver.trace_overhead_pct", 100*(median(wallTraced)/median(wallUntraced)-1), len(wallTraced))
	}
	st := reduceSpans(e.tr)
	res.m.set("driver.self_pct", st.driverSelfPct(), st.ops)
	c.layers(res.m, st)
	runProbes(w.name, res.m, e)
	return res, nil
}

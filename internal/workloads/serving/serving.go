// Package serving models the mixed fleet the priority study needs: an
// open-loop latency-critical service sharing a capped socket with
// best-effort batch work.
//
// The serving shards receive requests on a pre-generated Poisson
// arrival process (seeded, exponential inter-arrivals) and answer them
// one at a time; because the process is open loop, a slowed core does
// not slow the offered load — requests queue and latency compounds,
// which is exactly how a power cap turns into an SLO violation in
// production. The batch shards grind a compute/memory loop for as long
// as the service is live and report throughput as operations
// completed: the work a priority-aware controller sacrifices first.
package serving

import (
	"fmt"
	"math"
	"sort"

	"nodecap/internal/machine"
	"nodecap/internal/multicore"
	"nodecap/internal/simtime"
)

// Config sizes the mixed workload.
type Config struct {
	// ServingCores is how many leading cores run the service; the
	// remaining cores of the machine run batch shards (at least one).
	ServingCores int
	// RequestsPerCore is the arrival-process length per serving core.
	RequestsPerCore int
	// WarmupRequests per serving core are processed but excluded from
	// the latency record: they cover the cold-cache transient and the
	// capping controller's convergence, the standard steady-state
	// benchmarking discipline.
	WarmupRequests int
	// ArrivalRatePerSec is the mean request arrival rate per serving
	// core (open loop: independent of completion).
	ArrivalRatePerSec float64
	// RequestOps is the number of inner-loop iterations one request
	// costs; service time scales inversely with core frequency.
	RequestOps int
	// WorkingSetBytes is each serving core's private request state,
	// touched with a 64 B stride (mostly cache-resident; the service is
	// deliberately compute-bound so DVFS dominates its latency).
	WorkingSetBytes int
	// BatchBytes is each batch core's scan buffer (larger: batch work
	// leans on the shared L3 and DRAM channel).
	BatchBytes int
	// Seed drives the arrival processes; shard i derives its own
	// stream from Seed and i.
	Seed uint64
}

// DefaultConfig returns a service tuned so one serving core is ~55%
// utilized at full speed — stable at the study's frequency floor,
// overloaded (utilization > 1) when a fair-share cap drags the core to
// the slowest P-states.
func DefaultConfig() Config {
	return Config{
		ServingCores:      1,
		RequestsPerCore:   2000,
		WarmupRequests:    200,
		ArrivalRatePerSec: 300_000,
		RequestOps:        40,
		WorkingSetBytes:   64 << 10,
		BatchBytes:        4 << 20,
		Seed:              1,
	}
}

// Workload implements multicore.Workload. Run it once; latency and
// throughput accessors are valid after the run completes.
type Workload struct {
	cfg Config

	lat         []simtime.Duration
	batchOps    uint64
	servingLive int
}

// New builds the mixed workload; panics on nonsensical configuration.
func New(cfg Config) *Workload {
	if cfg.ServingCores <= 0 || cfg.RequestsPerCore <= 0 || cfg.ArrivalRatePerSec <= 0 || cfg.RequestOps <= 0 {
		panic("serving: non-positive configuration")
	}
	return &Workload{cfg: cfg}
}

// Name implements multicore.Workload.
func (w *Workload) Name() string { return "Open-Loop Serving + Batch" }

// CodePages implements multicore.Workload.
func (w *Workload) CodePages() int { return 24 }

// Shards implements multicore.Workload: ServingCores serving shards
// first (matching a priority machine's leading high-priority cores),
// batch shards on the rest.
func (w *Workload) Shards(cores int, alloc func(int) uint64) []multicore.Shard {
	if cores <= w.cfg.ServingCores {
		panic(fmt.Sprintf("serving: %d cores cannot host %d serving cores plus batch",
			cores, w.cfg.ServingCores))
	}
	w.lat = w.lat[:0]
	w.batchOps = 0
	w.servingLive = w.cfg.ServingCores

	out := make([]multicore.Shard, cores)
	for i := 0; i < w.cfg.ServingCores; i++ {
		out[i] = &servingShard{
			w:        w,
			arrivals: arrivalTimes(w.cfg.Seed+uint64(i)*0x9E3779B9, w.cfg.RequestsPerCore, w.cfg.ArrivalRatePerSec),
			base:     alloc(w.cfg.WorkingSetBytes),
		}
	}
	for i := w.cfg.ServingCores; i < cores; i++ {
		out[i] = &batchShard{w: w, base: alloc(w.cfg.BatchBytes)}
	}
	return out
}

// arrivalTimes pre-generates an exponential arrival process.
func arrivalTimes(seed uint64, n int, ratePerSec float64) []simtime.Duration {
	out := make([]simtime.Duration, n)
	var t float64 // seconds
	for i := range out {
		u := float64(splitmix(&seed)>>11) / (1 << 53)
		t += -math.Log(1-u) / ratePerSec
		out[i] = simtime.FromSeconds(t)
	}
	return out
}

func splitmix(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// --- serving shard ----------------------------------------------------

type servingShard struct {
	w        *Workload
	arrivals []simtime.Duration // relative to the shard's first step
	base     uint64
	next     int
	pos      uint64
	t0       simtime.Duration
}

// Step services one request: sleep until its arrival if the queue is
// empty, run the request body, and record arrival-to-completion
// latency (queueing included — the open-loop tail the SLO watches).
func (sh *servingShard) Step(c *machine.CoreHandle) bool {
	if sh.next >= len(sh.arrivals) {
		sh.w.servingLive--
		return false
	}
	if sh.next == 0 {
		sh.t0 = c.Now()
	}
	t := sh.t0 + sh.arrivals[sh.next]
	sh.next++
	if c.Now() < t {
		c.Sleep(t - c.Now())
	}
	for i := 0; i < sh.w.cfg.RequestOps; i++ {
		c.Compute(120, 96)
		c.Load(sh.base + sh.pos)
		sh.pos = (sh.pos + 64) % uint64(sh.w.cfg.WorkingSetBytes)
	}
	if sh.next > sh.w.cfg.WarmupRequests {
		sh.w.lat = append(sh.w.lat, c.Now()-t)
	}
	return true
}

// --- batch shard ------------------------------------------------------

type batchShard struct {
	w    *Workload
	base uint64
	pos  uint64
}

// Step grinds one batch slice; the shard retires once every serving
// shard has drained its arrival process (best-effort work has no
// completion target of its own).
func (sh *batchShard) Step(c *machine.CoreHandle) bool {
	if sh.w.servingLive == 0 {
		return false
	}
	for i := 0; i < 64; i++ {
		c.Compute(100, 80)
		c.Load(sh.base + sh.pos)
		sh.pos = (sh.pos + 256) % uint64(sh.w.cfg.BatchBytes)
		sh.w.batchOps++
	}
	return true
}

// --- metrics ----------------------------------------------------------

// Latencies returns every recorded request latency (completion order).
func (w *Workload) Latencies() []simtime.Duration { return w.lat }

// BatchOps reports total best-effort operations completed.
func (w *Workload) BatchOps() uint64 { return w.batchOps }

// P99 reports the 99th-percentile request latency (zero before a run).
func (w *Workload) P99() simtime.Duration { return w.Percentile(0.99) }

// Percentile reports the q-th latency percentile, q in (0, 1].
func (w *Workload) Percentile(q float64) simtime.Duration {
	if len(w.lat) == 0 {
		return 0
	}
	s := make([]simtime.Duration, len(w.lat))
	copy(s, w.lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Package parallel provides multi-core versions of the study's two
// applications for the future-work experiment ("explore how multi-core
// applications are affected by power capping"):
//
//   - Stereo matching with stripe-decomposed simulated annealing: each
//     core anneals a horizontal band of the disparity field, reading
//     (but not writing) neighbour disparities across stripe borders —
//     the standard domain decomposition for Monte Carlo relaxation.
//   - SIRE/RSM with aperture-decomposed noise removal followed by
//     pixel-decomposed backprojection, separated by a spin barrier
//     (each core burns cycles at the barrier until the last one
//     arrives, as an OpenMP-style busy-wait does).
//
// Both produce one shard per core against the machine's CoreHandle
// API; data is shared, private caches contend in the shared L3 and
// DRAM channel.
package parallel

import (
	"math/bits"

	"nodecap/internal/machine"
	"nodecap/internal/multicore"
	"nodecap/internal/workloads/stereo"
)

// --- parallel stereo matching ----------------------------------------

// Stereo is the stripe-parallel annealer.
type Stereo struct {
	cfg   stereo.Config
	scene *stereo.Scene
	disp  []int32

	leftBase, rightBase, censusLBase, censusRBase, dispBase uint64
}

// NewStereo synthesizes the scene once; shards share it. The
// disparity field starts from the same random initialization the
// sequential annealer uses (a zero field biases the Potts smoothness
// term toward the background and traps the chain).
func NewStereo(cfg stereo.Config) *Stereo {
	s := &Stereo{
		cfg:   cfg,
		scene: stereo.NewScene(cfg),
		disp:  make([]int32, cfg.Width*cfg.Height),
	}
	rng := cfg.Seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := range s.disp {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		s.disp[i] = int32((rng * 2685821657736338717) % uint64(cfg.MaxDisparity))
	}
	return s
}

// Name implements multicore.Workload.
func (s *Stereo) Name() string { return "Stereo Matching (parallel)" }

// CodePages implements multicore.Workload.
func (s *Stereo) CodePages() int { return 40 }

// Disparity returns the recovered field, valid after a run.
func (s *Stereo) Disparity() []int32 { return s.disp }

// ErrorRate reports the fraction of pixels off by more than one level.
func (s *Stereo) ErrorRate() float64 {
	bad := 0
	for i := range s.disp {
		d := s.disp[i] - s.scene.Truth[i]
		if d < -1 || d > 1 {
			bad++
		}
	}
	return float64(bad) / float64(len(s.disp))
}

// Shards implements multicore.Workload: one horizontal stripe per
// core.
func (s *Stereo) Shards(cores int, alloc func(int) uint64) []multicore.Shard {
	n := s.cfg.Width * s.cfg.Height
	s.leftBase = alloc(n * 4)
	s.rightBase = alloc(n * 4)
	s.censusLBase = alloc(n * 8)
	s.censusRBase = alloc(n * 8)
	s.dispBase = alloc(n * 4)

	out := make([]multicore.Shard, cores)
	rows := s.cfg.Height / cores
	for i := 0; i < cores; i++ {
		y0 := i * rows
		y1 := y0 + rows
		if i == cores-1 {
			y1 = s.cfg.Height
		}
		out[i] = &stereoShard{
			w: s, y0: y0, y1: y1,
			rng:       uint64(i+1)*0x9E3779B97F4A7C15 + s.cfg.Seed,
			remaining: s.cfg.Sweeps * (y1 - y0) * s.cfg.Width,
			temp:      s.cfg.T0,
		}
	}
	return out
}

type stereoShard struct {
	w         *Stereo
	y0, y1    int
	rng       uint64
	remaining int
	sweepLeft int
	temp      float64
}

func (sh *stereoShard) rand64() uint64 {
	sh.rng ^= sh.rng >> 12
	sh.rng ^= sh.rng << 25
	sh.rng ^= sh.rng >> 27
	return sh.rng * 2685821657736338717
}

// Step implements multicore.Shard: one annealing proposal.
func (sh *stereoShard) Step(c *machine.CoreHandle) bool {
	if sh.remaining <= 0 {
		return false
	}
	sh.remaining--
	w := sh.w
	cfg := w.cfg

	stripeRows := sh.y1 - sh.y0
	if sh.sweepLeft == 0 {
		sh.sweepLeft = stripeRows * cfg.Width
		sh.temp *= cfg.Alpha
	}
	sh.sweepLeft--

	r := sh.rand64()
	y := sh.y0 + int(r%uint64(stripeRows))
	x := int((r >> 20) % uint64(cfg.Width))
	idx := y*cfg.Width + x

	c.Load(w.dispBase + uint64(idx)*4)
	cur := w.disp[idx]
	prop := sh.propose(c, x, y, cur)
	if prop == cur {
		c.Compute(6, 5)
		return sh.remaining > 0
	}

	dE := sh.dataCost(c, x, y, prop) - sh.dataCost(c, x, y, cur)
	for _, o := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		xx, yy := x+o[0], y+o[1]
		if xx < 0 || xx >= cfg.Width || yy < 0 || yy >= cfg.Height {
			continue
		}
		nIdx := yy*cfg.Width + xx
		c.Load(w.dispBase + uint64(nIdx)*4)
		nd := w.disp[nIdx] // cross-stripe reads are racy-by-design, as in parallel SA
		if nd != prop {
			dE += cfg.Lambda
		}
		if nd != cur {
			dE -= cfg.Lambda
		}
	}
	accept := dE <= 0
	if !accept && sh.temp > 1e-6 {
		accept = float64(sh.rand64()>>11)/float64(1<<53) < fastExp(-dE/sh.temp)
	}
	c.Compute(22, 18)
	if accept {
		w.disp[idx] = prop
		c.Store(w.dispBase + uint64(idx)*4)
	}
	return sh.remaining > 0
}

// propose mirrors the sequential annealer's Monte Carlo mixture:
// uniform exploration, neighbour copying, local refinement.
func (sh *stereoShard) propose(c *machine.CoreHandle, x, y int, cur int32) int32 {
	w := sh.w
	cfg := w.cfg
	r := sh.rand64()
	switch {
	case r%4 < 2:
		return int32(sh.rand64() % uint64(cfg.MaxDisparity))
	case r%4 == 2:
		o := [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}[(r>>8)%4]
		xx, yy := x+o[0], y+o[1]
		if xx < 0 || xx >= cfg.Width || yy < 0 || yy >= cfg.Height {
			return cur
		}
		c.Load(w.dispBase + uint64(yy*cfg.Width+xx)*4)
		return w.disp[yy*cfg.Width+xx]
	default:
		d := cur + int32((r>>8)%3) - 1
		if d < 0 {
			d = 0
		}
		if d >= int32(cfg.MaxDisparity) {
			d = int32(cfg.MaxDisparity) - 1
		}
		return d
	}
}

func (sh *stereoShard) dataCost(c *machine.CoreHandle, x, y int, d int32) float64 {
	w := sh.w
	cfg := w.cfg
	idx := y*cfg.Width + x
	rx := x - int(d)
	if rx < 0 {
		rx = 0
	}
	ridx := y*cfg.Width + rx
	c.Load(w.censusLBase + uint64(idx)*8)
	c.Load(w.censusRBase + uint64(ridx)*8)
	ham := bits.OnesCount64(w.scene.CensusL[idx] ^ w.scene.CensusR[ridx])
	c.Load(w.leftBase + uint64(idx)*4)
	c.Load(w.rightBase + uint64(ridx)*4)
	diff := float64(w.scene.Left[idx] - w.scene.Right[ridx])
	if diff < 0 {
		diff = -diff
	}
	c.Compute(9, 7)
	return float64(ham)*0.5 + diff*4
}

// fastExp is a cheap exp approximation adequate for Metropolis
// acceptance (inputs in [-20, 0]).
func fastExp(x float64) float64 {
	if x < -20 {
		return 0
	}
	// exp(x) ~= (1 + x/64)^64 for small |x|.
	v := 1 + x/64
	if v < 0 {
		return 0
	}
	v2 := v * v    // ^2
	v2 = v2 * v2   // ^4
	v2 = v2 * v2   // ^8
	v2 = v2 * v2   // ^16
	v2 = v2 * v2   // ^32
	return v2 * v2 // ^64
}

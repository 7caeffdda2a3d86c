package parallel

import (
	"math"

	"nodecap/internal/machine"
	"nodecap/internal/multicore"
	"nodecap/internal/workloads/sar"
)

// SAR is the parallel SIRE/RSM workload: aperture-decomposed streaming
// noise removal, a spin barrier, then pixel-decomposed backprojection.
type SAR struct {
	cfg sar.Config

	data  []float64
	image []float64

	dataBase, imageBase uint64

	// barrier state shared by the shards.
	arrived int
	cores   int
}

// NewSAR synthesizes the radar returns once; shards share them.
func NewSAR(cfg sar.Config) *SAR {
	p := &SAR{cfg: cfg}
	p.synthesize()
	return p
}

// synthesize builds returns with the same shape the sequential
// implementation uses: pulses at two-way-delay samples plus noise.
func (p *SAR) synthesize() {
	c := p.cfg
	rng := c.Seed*2654435761 + 1
	rand := func() float64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return float64(rng*2685821657736338717>>11) / float64(1<<53)
	}
	p.data = make([]float64, c.Apertures*c.SamplesPerAperture)
	p.image = make([]float64, c.ImageSize*c.ImageSize)
	type tgt struct{ x, y, a float64 }
	targets := make([]tgt, c.Targets)
	for i := range targets {
		targets[i] = tgt{0.15 + 0.7*rand(), 0.15 + 0.7*rand(), 0.7 + 0.6*rand()}
	}
	for k := 0; k < c.Apertures; k++ {
		ax := float64(k) / float64(c.Apertures)
		row := p.data[k*c.SamplesPerAperture : (k+1)*c.SamplesPerAperture]
		for i := range row {
			row[i] = 0.12 * (rand() - 0.5)
		}
		for _, t := range targets {
			idx := delayIdx(ax, t.x, t.y, c.SamplesPerAperture)
			for off, amp := range [...]float64{1.0, 0.6, -0.4, 0.2} {
				if idx+off < len(row) {
					row[idx+off] += t.a * amp
				}
			}
		}
	}
}

func delayIdx(ax, tx, ty float64, samples int) int {
	dx := tx - ax
	r := math.Sqrt(dx*dx+ty*ty) / math.Sqrt2
	idx := int(r * float64(samples-8))
	if idx < 0 {
		idx = 0
	}
	if idx >= samples {
		idx = samples - 1
	}
	return idx
}

// Name implements multicore.Workload.
func (p *SAR) Name() string { return "SIRE/RSM (parallel)" }

// CodePages implements multicore.Workload.
func (p *SAR) CodePages() int { return 56 }

// Image returns the formed image, valid after a run.
func (p *SAR) Image() []float64 { return p.image }

// Shards implements multicore.Workload.
func (p *SAR) Shards(cores int, alloc func(int) uint64) []multicore.Shard {
	p.dataBase = alloc(len(p.data) * 8)
	p.imageBase = alloc(len(p.image) * 8)
	p.cores = cores
	p.arrived = 0

	c := p.cfg
	out := make([]multicore.Shard, cores)
	apPer := (c.Apertures + cores - 1) / cores
	rowPer := (c.ImageSize + cores - 1) / cores
	for i := 0; i < cores; i++ {
		sh := &sarShard{w: p}
		sh.apLo = i * apPer
		sh.apHi = min(c.Apertures, sh.apLo+apPer)
		sh.rowLo = i * rowPer
		sh.rowHi = min(c.ImageSize, sh.rowLo+rowPer)
		sh.denoiseIdx = sh.apLo * c.SamplesPerAperture
		out[i] = sh
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

type sarShard struct {
	w *SAR

	apLo, apHi   int // denoise aperture range
	rowLo, rowHi int // backprojection pixel-row range

	phase      int // 0 denoise, 1 barrier, 2 backproject, 3 done
	denoiseIdx int
	px, py     int
	atBarrier  bool
}

// Step implements multicore.Shard.
func (sh *sarShard) Step(c *machine.CoreHandle) bool {
	w := sh.w
	cfg := w.cfg
	switch sh.phase {
	case 0: // streaming three-tap noise removal over our apertures
		end := sh.apHi * cfg.SamplesPerAperture
		// One batch: 16 elements, keeping scheduling quanta small.
		for n := 0; n < 16 && sh.denoiseIdx < end; n++ {
			i := sh.denoiseIdx
			c.Load(w.dataBase + uint64(i)*8)
			prev, next := 0.0, 0.0
			if i > sh.apLo*cfg.SamplesPerAperture {
				prev = w.data[i-1]
			}
			if i+1 < end {
				c.Load(w.dataBase + uint64(i+1)*8)
				next = w.data[i+1]
			}
			f := 0.25*prev + 0.5*w.data[i] + 0.25*next
			if math.Abs(f) < 0.05 {
				f = 0
			}
			w.data[i] = f
			c.Store(w.dataBase + uint64(i)*8)
			c.Compute(7, 6)
			sh.denoiseIdx++
		}
		if sh.denoiseIdx >= end {
			sh.phase = 1
		}
		return true
	case 1: // spin barrier: everyone must finish denoising first
		if !sh.atBarrier {
			sh.atBarrier = true
			w.arrived++
		}
		if w.arrived < w.cores {
			c.Compute(60, 12) // busy-wait iteration
			return true
		}
		sh.phase = 2
		sh.py = sh.rowLo
		return true
	case 2: // backproject our pixel rows over all apertures
		if sh.py >= sh.rowHi {
			sh.phase = 3
			return false
		}
		// One batch: one pixel.
		ty := (float64(sh.py) + 0.5) / float64(cfg.ImageSize)
		tx := (float64(sh.px) + 0.5) / float64(cfg.ImageSize)
		var sum float64
		step := cfg.Apertures / cfg.BPAperturesPerIter
		if step < 1 {
			step = 1
		}
		for a := 0; a < cfg.BPAperturesPerIter; a++ {
			k := (a * step) % cfg.Apertures
			idx := delayIdx(float64(k)/float64(cfg.Apertures), tx, ty, cfg.SamplesPerAperture)
			off := k*cfg.SamplesPerAperture + idx
			c.Load(w.dataBase + uint64(off)*8)
			sum += w.data[off]
			c.Compute(11, 9)
		}
		pix := sh.py*cfg.ImageSize + sh.px
		w.image[pix] = math.Abs(sum)
		c.Store(w.imageBase + uint64(pix)*8)
		sh.px++
		if sh.px >= cfg.ImageSize {
			sh.px = 0
			sh.py++
		}
		return true
	default:
		return false
	}
}

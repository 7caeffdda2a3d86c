// Package sar implements the SIRE/RSM workload of the study: synthetic
// aperture radar image formation for the Army Research Laboratory's
// ultra-wideband Synchronous Impulse Reconstruction (SIRE) radar, with
// Recursive Sidelobe Minimization (RSM).
//
// The paper uses the ARL code on the Lam dataset; neither is public,
// so this package implements the published algorithm on synthetic
// radar returns with the memory behaviour the paper describes: the
// dominant phase "processes, in a stream-like fashion, data stored in
// an array that is too large to fit in any one of the caches" and
// "iteratively loops through the array elements to remove noise,
// generating a sequence of compulsory misses, followed by sequences of
// conflict misses" (Section IV-B). Image formation then backprojects
// the cleaned returns onto a ground plane, and RSM repeats the
// projection with pseudo-random aperture weightings, keeping the
// per-pixel minimum magnitude to suppress sidelobes.
//
// Every touch of the radar-data, image, and scratch arrays is mirrored
// into the simulated memory hierarchy, so counter and timing behaviour
// under power caps emerges from the real algorithm's access pattern.
package sar

import (
	"math"
	"sync"

	"nodecap/internal/machine"
)

// Config sizes the workload.
type Config struct {
	// Apertures and SamplesPerAperture size the raw data array. The
	// default footprint (184 x 16384 float64 = 23 MiB) exceeds the
	// 20 MiB L3, as the paper requires.
	Apertures          int
	SamplesPerAperture int
	// NoisePasses is the number of streaming noise-removal passes.
	NoisePasses int
	// ImageSize is the output grid edge (pixels).
	ImageSize int
	// RSMIterations is the number of weighted backprojections whose
	// pointwise minimum forms the final image.
	RSMIterations int
	// BPAperturesPerIter is how many apertures each RSM iteration
	// integrates per pixel.
	BPAperturesPerIter int
	// Targets is the number of synthetic point scatterers.
	Targets int
	// Seed drives waveform noise and RSM weight selection.
	Seed uint64
}

// DefaultConfig returns the full-size workload (the "large image"
// configuration of Table I, scaled to simulator run lengths).
func DefaultConfig() Config {
	return Config{
		Apertures:          184,
		SamplesPerAperture: 16384,
		NoisePasses:        1,
		ImageSize:          96,
		RSMIterations:      3,
		BPAperturesPerIter: 24,
		Targets:            5,
		Seed:               1,
	}
}

// SmallConfig returns a reduced configuration for unit tests.
func SmallConfig() Config {
	return Config{
		Apertures:          32,
		SamplesPerAperture: 1024,
		NoisePasses:        1,
		ImageSize:          24,
		RSMIterations:      2,
		BPAperturesPerIter: 16,
		Targets:            2,
		Seed:               1,
	}
}

// Workload is the runnable SIRE/RSM instance.
type Workload struct {
	cfg Config

	// data is the radar returns, apertures x samples: raw as
	// synthesized, filtered once denoised has fired. Every fork of one
	// prototype shares both and only reads data after that.
	data     []float64
	denoised *sync.Once
	image    []float64 // final RSM image, ImageSize x ImageSize
	work     []float64 // per-iteration backprojection scratch

	dataBase, imageBase, workBase uint64

	targets []target
	rng     uint64
}

type target struct {
	x, y      float64 // scene coordinates in [0,1)
	amplitude float64
}

// New builds the workload and synthesizes its radar returns.
func New(cfg Config) *Workload {
	w := &Workload{cfg: cfg, rng: cfg.Seed*2654435761 + 1, denoised: new(sync.Once)}
	w.synthesize()
	return w
}

// Fork implements machine.Forker: a fresh instance over the same radar
// returns and scene. The filtered returns are a pure function of the
// input, so whichever instance runs first filters them, once, for all.
func (w *Workload) Fork() machine.Workload {
	f := *w
	f.image = make([]float64, len(w.image))
	f.work = make([]float64, len(w.work))
	return &f
}

// Name implements machine.Workload.
func (w *Workload) Name() string { return "SIRE/RSM" }

// CodePages implements machine.Workload: the ARL image-formation code
// is a mid-sized signal-processing binary.
func (w *Workload) CodePages() int { return 56 }

// Image returns the formed image (row-major ImageSize x ImageSize),
// valid after Run.
func (w *Workload) Image() []float64 { return w.image }

// Targets returns the synthetic scatterer positions in [0,1) scene
// coordinates.
func (w *Workload) Targets() [][2]float64 {
	out := make([][2]float64, len(w.targets))
	for i, t := range w.targets {
		out[i] = [2]float64{t.x, t.y}
	}
	return out
}

func (w *Workload) rand() float64 {
	// xorshift64*, deterministic across runs with the same seed.
	w.rng ^= w.rng >> 12
	w.rng ^= w.rng << 25
	w.rng ^= w.rng >> 27
	return float64(w.rng*2685821657736338717>>11) / float64(1<<53)
}

// synthesize builds the scene and the raw returns: each aperture
// records each target's pulse at the two-way-delay sample index, plus
// additive noise.
func (w *Workload) synthesize() {
	c := w.cfg
	w.data = make([]float64, c.Apertures*c.SamplesPerAperture)
	w.image = make([]float64, c.ImageSize*c.ImageSize)
	w.work = make([]float64, c.ImageSize*c.ImageSize)

	w.targets = make([]target, c.Targets)
	for i := range w.targets {
		w.targets[i] = target{
			x:         0.15 + 0.7*w.rand(),
			y:         0.15 + 0.7*w.rand(),
			amplitude: 0.7 + 0.6*w.rand(),
		}
	}
	for k := 0; k < c.Apertures; k++ {
		ax := apertureX(k, c.Apertures)
		row := w.data[k*c.SamplesPerAperture : (k+1)*c.SamplesPerAperture]
		for i := range row {
			row[i] = 0.12 * (w.rand() - 0.5) // receiver noise
		}
		for _, t := range w.targets {
			idx := delaySample(ax, t.x, t.y, c.SamplesPerAperture)
			// A short impulse with a ringing tail, SIRE-style.
			for off, amp := range [...]float64{1.0, 0.6, -0.4, 0.2} {
				if idx+off < len(row) {
					row[idx+off] += t.amplitude * amp
				}
			}
		}
	}
}

// apertureX places aperture k along the radar's forward path.
func apertureX(k, n int) float64 {
	return float64(k) / float64(n)
}

// delaySample maps an aperture position and scene point to the sample
// index of the two-way delay.
func delaySample(ax, tx, ty float64, samples int) int {
	dx := tx - ax
	r := math.Sqrt(dx*dx+ty*ty) / math.Sqrt2 // normalized range in [0,1)
	idx := int(r * float64(samples-8))
	if idx < 0 {
		idx = 0
	}
	if idx >= samples {
		idx = samples - 1
	}
	return idx
}

// Run implements machine.Workload. Phases: streaming noise removal
// over the raw array, then RSM backprojection iterations.
func (w *Workload) Run(m *machine.Machine) {
	w.dataBase = m.Alloc(len(w.data) * 8)
	w.imageBase = m.Alloc(len(w.image) * 8)
	w.workBase = m.Alloc(len(w.work) * 8)

	w.removeNoise(m)
	w.formImage(m)
}

// removeNoise streams the full data array NoisePasses times applying a
// three-tap filter in place — the too-big-for-cache loop the paper
// calls out. The machine sees every pass of every run, operation for
// operation; the arithmetic, whose result no operation depends on,
// happens the first time only (denoise).
func (w *Workload) removeNoise(m *machine.Machine) {
	w.denoised.Do(w.denoise)
	n := len(w.data)
	for pass := 0; pass < w.cfg.NoisePasses; pass++ {
		m.Load(w.dataBase)
		for i := 0; i < n; i++ {
			if i+1 < n {
				m.Load(w.dataBase + uint64(i+1)*8)
			}
			m.Store(w.dataBase + uint64(i)*8)
			m.Compute(7, 6)
		}
	}
}

// denoise is the filter removeNoise models, applied to the returns.
func (w *Workload) denoise() {
	n := len(w.data)
	for pass := 0; pass < w.cfg.NoisePasses; pass++ {
		prev, cur := 0.0, w.data[0]
		for i := 0; i < n; i++ {
			next := 0.0
			if i+1 < n {
				next = w.data[i+1]
			}
			filtered := 0.25*prev + 0.5*cur + 0.25*next
			// Soft-threshold small values: impulse noise removal.
			if math.Abs(filtered) < 0.05 {
				filtered = 0
			}
			prev, cur = cur, next
			w.data[i] = filtered
		}
	}
}

// formImage runs RSM: each iteration backprojects a pseudo-randomly
// weighted aperture subset into the scratch image; the final image is
// the pointwise minimum magnitude across iterations.
func (w *Workload) formImage(m *machine.Machine) {
	c := w.cfg
	for i := range w.image {
		w.image[i] = math.Inf(1)
	}
	for it := 0; it < c.RSMIterations; it++ {
		// Choose this iteration's aperture subset deterministically
		// from the seed (RSM's "random" compensation weights).
		start := int(w.rng % uint64(c.Apertures))
		step := 1 + int(w.rng%7)
		w.rand()

		for p := range w.work {
			w.work[p] = 0
		}
		for py := 0; py < c.ImageSize; py++ {
			ty := (float64(py) + 0.5) / float64(c.ImageSize)
			for px := 0; px < c.ImageSize; px++ {
				tx := (float64(px) + 0.5) / float64(c.ImageSize)
				pixIdx := py*c.ImageSize + px
				var sum float64
				for a := 0; a < c.BPAperturesPerIter; a++ {
					k := (start + a*step) % c.Apertures
					idx := delaySample(apertureX(k, c.Apertures), tx, ty, c.SamplesPerAperture)
					off := k*c.SamplesPerAperture + idx
					m.Load(w.dataBase + uint64(off)*8)
					sum += w.data[off]
					m.Compute(11, 9) // range, interpolation, accumulate
				}
				m.Load(w.workBase + uint64(pixIdx)*8)
				m.Store(w.workBase + uint64(pixIdx)*8)
				w.work[pixIdx] = sum
			}
		}
		// RSM minimum combining.
		for p := range w.image {
			m.Load(w.workBase + uint64(p)*8)
			m.Load(w.imageBase + uint64(p)*8)
			v := math.Abs(w.work[p])
			if v < w.image[p] {
				m.Store(w.imageBase + uint64(p)*8)
				w.image[p] = v
			}
			m.Compute(4, 3)
		}
	}
}

// PeakPixel reports the brightest image pixel (x, y, value) after Run;
// tests use it to confirm the imaging actually works.
func (w *Workload) PeakPixel() (int, int, float64) {
	best, bi := -1.0, 0
	for i, v := range w.image {
		if !math.IsInf(v, 1) && v > best {
			best, bi = v, i
		}
	}
	return bi % w.cfg.ImageSize, bi / w.cfg.ImageSize, best
}

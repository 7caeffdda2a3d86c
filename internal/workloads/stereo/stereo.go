// Package stereo implements the study's second workload: computer
// stereo matching using the simulated annealing algorithm, after the
// ARL Monte Carlo image-matching code of Shires (ARL-TR-667).
//
// The paper's input is a "three-layer wedding cake": a synthetic
// stereo pair whose disparity ground truth is three nested rectangular
// layers on a background. This package generates exactly that scene,
// then recovers the disparity field by Metropolis-style simulated
// annealing over a Potts-smoothed matching energy.
//
// The working set — left/right intensity images, census-transform
// features, and the disparity field — is sized to sit in the L3 cache
// but far exceed the L2, with essentially random pixel access from the
// annealing proposals. That is the access pattern behind the paper's
// stereo-specific findings: when low power caps shrink L2/L3
// associativity, this workload's L2 and L3 misses explode (Table II
// rows A8/A9: +203% and +371%) and execution time grows by up to
// 3,467%, far worse than the streaming SAR code.
package stereo

import (
	"math"
	"math/bits"

	"nodecap/internal/machine"
)

// Config sizes the workload.
type Config struct {
	// Width and Height are the image dimensions. The default working
	// set (512x512: two float32 images, two uint64 census fields, an
	// int32 disparity field) is ~6.3 MiB — L3-resident, L2-hostile.
	Width, Height int
	// MaxDisparity bounds the disparity search range.
	MaxDisparity int
	// Sweeps is the number of annealing sweeps (proposals per pixel).
	Sweeps int
	// Lambda weighs the smoothness term against the data term.
	Lambda float64
	// T0 and Alpha define the geometric cooling schedule.
	T0, Alpha float64
	// Seed drives scene texture and the annealing chain.
	Seed uint64
}

// DefaultConfig returns the full-size workload.
func DefaultConfig() Config {
	return Config{
		Width: 512, Height: 512,
		MaxDisparity: 12,
		Sweeps:       2,
		Lambda:       1.1,
		T0:           2.0,
		Alpha:        0.72,
		Seed:         1,
	}
}

// SmallConfig returns a reduced configuration for unit tests.
func SmallConfig() Config {
	return Config{
		Width: 96, Height: 96,
		MaxDisparity: 8,
		Sweeps:       3,
		Lambda:       1.1,
		T0:           2.0,
		Alpha:        0.7,
		Seed:         1,
	}
}

// Scene is a synthesized stereo-matching problem instance: the
// wedding-cake ground truth, the rendered image pair, and the census
// features. Both the sequential Workload and the multicore parallel
// variant consume Scenes.
type Scene struct {
	Cfg              Config
	Left, Right      []float32 // intensity images
	CensusL, CensusR []uint64  // census-transform features
	Truth            []int32   // ground-truth disparity
}

// Workload is a runnable stereo-matching instance.
type Workload struct {
	cfg Config

	scene *Scene
	disp  []int32 // current disparity estimate

	leftBase, rightBase, censusLBase, censusRBase, dispBase uint64

	rng uint64
}

// New builds the workload: scene synthesis plus feature extraction
// happen off-simulation (they model data that arrives with the task).
func New(cfg Config) *Workload {
	w := &Workload{cfg: cfg, rng: sceneSeed(cfg.Seed)}
	w.scene = synthesize(cfg, &w.rng)
	w.disp = make([]int32, cfg.Width*cfg.Height)
	return w
}

// Fork implements machine.Forker: a fresh matcher over the same scene,
// which Run only reads, starting from the same annealing seed.
func (w *Workload) Fork() machine.Workload {
	return &Workload{cfg: w.cfg, scene: w.scene, disp: make([]int32, len(w.disp)), rng: w.rng}
}

// NewScene synthesizes a problem instance without binding it to a
// sequential workload.
func NewScene(cfg Config) *Scene {
	rng := sceneSeed(cfg.Seed)
	return synthesize(cfg, &rng)
}

func sceneSeed(seed uint64) uint64 {
	return seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
}

// Name implements machine.Workload. The paper labels this workload
// "Stereo Matching w/ simulated annealing".
func (w *Workload) Name() string { return "Stereo Matching" }

// CodePages implements machine.Workload.
func (w *Workload) CodePages() int { return 40 }

// Disparity returns the recovered disparity field (row-major), valid
// after Run.
func (w *Workload) Disparity() []int32 { return w.disp }

// Truth returns the ground-truth disparity field.
func (w *Workload) Truth() []int32 { return w.scene.Truth }

func (w *Workload) rand64() uint64 {
	w.rng ^= w.rng >> 12
	w.rng ^= w.rng << 25
	w.rng ^= w.rng >> 27
	return w.rng * 2685821657736338717
}

func (w *Workload) randFloat() float64 {
	return float64(w.rand64()>>11) / float64(1<<53)
}

func randFrom(rng *uint64) float64 {
	*rng ^= *rng >> 12
	*rng ^= *rng << 25
	*rng ^= *rng >> 27
	return float64(*rng*2685821657736338717>>11) / float64(1<<53)
}

// wedding builds the three-layer wedding-cake ground truth: nested
// rectangles at increasing disparity over a zero-disparity background.
func wedding(c Config) []int32 {
	truth := make([]int32, c.Width*c.Height)
	layers := []struct {
		inset float64
		d     int32
	}{
		{0.15, int32(c.MaxDisparity / 3)},
		{0.28, int32(2 * c.MaxDisparity / 3)},
		{0.40, int32(c.MaxDisparity - 1)},
	}
	for y := 0; y < c.Height; y++ {
		for x := 0; x < c.Width; x++ {
			var d int32
			for _, l := range layers {
				x0 := int(float64(c.Width) * l.inset)
				y0 := int(float64(c.Height) * l.inset)
				if x >= x0 && x < c.Width-x0 && y >= y0 && y < c.Height-y0 {
					d = l.d
				}
			}
			truth[y*c.Width+x] = d
		}
	}
	return truth
}

// synthesize renders the left image as band-limited noise texture,
// warps it by the ground-truth disparity into the right image, and
// computes census features for both.
func synthesize(c Config, rng *uint64) *Scene {
	sc := &Scene{Cfg: c, Truth: wedding(c)}
	n := c.Width * c.Height
	sc.Left = make([]float32, n)
	sc.Right = make([]float32, n)

	// Textured left image: smoothed hash noise so windows are
	// discriminative.
	raw := make([]float32, n)
	for i := range raw {
		raw[i] = float32(randFrom(rng))
	}
	for y := 0; y < c.Height; y++ {
		for x := 0; x < c.Width; x++ {
			var s float32
			var k float32
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					xx, yy := x+dx, y+dy
					if xx >= 0 && xx < c.Width && yy >= 0 && yy < c.Height {
						s += raw[yy*c.Width+xx]
						k++
					}
				}
			}
			sc.Left[y*c.Width+x] = s / k
		}
	}
	// Right image: left warped by ground truth (right camera sees the
	// scene shifted left by d), with slight photometric noise.
	for y := 0; y < c.Height; y++ {
		for x := 0; x < c.Width; x++ {
			sx := x + int(sc.Truth[y*c.Width+x])
			if sx >= c.Width {
				sx = c.Width - 1
			}
			sc.Right[y*c.Width+x] = sc.Left[y*c.Width+sx] + float32(0.01*(randFrom(rng)-0.5))
		}
	}
	sc.CensusL = censusTransform(sc.Left, c.Width, c.Height)
	sc.CensusR = censusTransform(sc.Right, c.Width, c.Height)
	return sc
}

// censusTransform computes an 8-neighbour census signature per pixel:
// bit i set iff neighbour i is brighter than the centre.
func censusTransform(img []float32, wd, ht int) []uint64 {
	out := make([]uint64, wd*ht)
	offs := [8][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	for y := 0; y < ht; y++ {
		for x := 0; x < wd; x++ {
			ctr := img[y*wd+x]
			var sig uint64
			for i, o := range offs {
				xx, yy := x+o[0], y+o[1]
				if xx >= 0 && xx < wd && yy >= 0 && yy < ht && img[yy*wd+xx] > ctr {
					sig |= 1 << uint(i)
				}
			}
			out[y*wd+x] = sig
		}
	}
	return out
}

// Run implements machine.Workload: annealing over the disparity field.
func (w *Workload) Run(m *machine.Machine) {
	c := w.cfg
	n := c.Width * c.Height
	w.leftBase = m.Alloc(n * 4)
	w.rightBase = m.Alloc(n * 4)
	w.censusLBase = m.Alloc(n * 8)
	w.censusRBase = m.Alloc(n * 8)
	w.dispBase = m.Alloc(n * 4)

	// Random initial state.
	for i := range w.disp {
		w.disp[i] = int32(w.rand64() % uint64(c.MaxDisparity))
		m.Store(w.dispBase + uint64(i)*4)
		m.Compute(3, 2)
	}

	temp := c.T0
	for sweep := 0; sweep < c.Sweeps; sweep++ {
		for p := 0; p < n; p++ {
			// Monte Carlo site selection: random pixel, random move.
			idx := int(w.rand64() % uint64(n))
			x, y := idx%c.Width, idx/c.Width
			cur := w.disp[idx]
			m.Load(w.dispBase + uint64(idx)*4)
			prop := w.propose(m, x, y, cur)
			if prop == cur {
				continue
			}
			dE := w.energyDelta(m, x, y, cur, prop)
			accept := dE <= 0
			if !accept && temp > 1e-6 {
				accept = w.randFloat() < math.Exp(-dE/temp)
			}
			m.Compute(22, 18) // RNG, exp, branch bookkeeping
			if accept {
				w.disp[idx] = prop
				m.Store(w.dispBase + uint64(idx)*4)
			}
		}
		temp *= c.Alpha
	}
}

// propose draws a candidate disparity using the Monte Carlo mixture
// that makes annealing practical on images: half uniform exploration,
// a quarter copying a random neighbour (propagates correct matches
// across smooth regions), a quarter local refinement of the current
// value.
func (w *Workload) propose(m *machine.Machine, x, y int, cur int32) int32 {
	c := w.cfg
	r := w.rand64()
	switch {
	case r%4 < 2:
		return int32(w.rand64() % uint64(c.MaxDisparity))
	case r%4 == 2:
		o := [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}[(r>>8)%4]
		xx, yy := x+o[0], y+o[1]
		if xx < 0 || xx >= c.Width || yy < 0 || yy >= c.Height {
			return cur
		}
		m.Load(w.dispBase + uint64(yy*c.Width+xx)*4)
		return w.disp[yy*c.Width+xx]
	default:
		d := cur + int32((r>>8)%3) - 1
		if d < 0 {
			d = 0
		}
		if d >= int32(c.MaxDisparity) {
			d = int32(c.MaxDisparity) - 1
		}
		return d
	}
}

// energyDelta evaluates the energy change of moving pixel (x,y) from
// disparity cur to prop: census-Hamming data term plus intensity
// residual, and a Potts smoothness term over the 4-neighbourhood.
func (w *Workload) energyDelta(m *machine.Machine, x, y int, cur, prop int32) float64 {
	c := w.cfg
	dE := w.dataCost(m, x, y, prop) - w.dataCost(m, x, y, cur)
	for _, o := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		xx, yy := x+o[0], y+o[1]
		if xx < 0 || xx >= c.Width || yy < 0 || yy >= c.Height {
			continue
		}
		nd := w.disp[yy*c.Width+xx]
		m.Load(w.dispBase + uint64(yy*c.Width+xx)*4)
		if nd != prop {
			dE += c.Lambda
		}
		if nd != cur {
			dE -= c.Lambda
		}
	}
	return dE
}

// dataCost scores disparity d at (x,y): Hamming distance between the
// left census signature and the right signature at the shifted
// position, plus the absolute intensity residual.
func (w *Workload) dataCost(m *machine.Machine, x, y int, d int32) float64 {
	c := w.cfg
	idx := y*c.Width + x
	rx := x - int(d)
	if rx < 0 {
		rx = 0
	}
	ridx := y*c.Width + rx
	m.Load(w.censusLBase + uint64(idx)*8)
	m.Load(w.censusRBase + uint64(ridx)*8)
	ham := bits.OnesCount64(w.scene.CensusL[idx] ^ w.scene.CensusR[ridx])
	m.Load(w.leftBase + uint64(idx)*4)
	m.Load(w.rightBase + uint64(ridx)*4)
	diff := math.Abs(float64(w.scene.Left[idx] - w.scene.Right[ridx]))
	m.Compute(9, 7)
	return float64(ham)*0.5 + diff*4
}

// ErrorRate reports the fraction of pixels whose recovered disparity
// differs from ground truth by more than one level; tests use it to
// confirm the matcher converges.
func (w *Workload) ErrorRate() float64 {
	bad := 0
	for i := range w.disp {
		d := w.disp[i] - w.scene.Truth[i]
		if d < -1 || d > 1 {
			bad++
		}
	}
	return float64(bad) / float64(len(w.disp))
}

// WorkingSetBytes reports the data-plane footprint.
func (w *Workload) WorkingSetBytes() int {
	n := w.cfg.Width * w.cfg.Height
	return n*4*2 + n*8*2 + n*4
}

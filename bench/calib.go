package main

import (
	"syscall"
	"time"
)

// The calibration kernel is a fixed piece of pure-Go work — a splitmix64
// chain, then a strided walk over 64 MiB — timed before and after the
// timed phase. It touches nothing of the program under test, so a
// change in its time is the host, not the code: a run whose two
// readings differ by more than calibMaxDriftPct is marked noisy.
const (
	calibBytes       = 64 << 20
	calibMixSteps    = 60_000_000
	calibWalkSteps   = 6_000_000
	calibStride      = 4099 // words; prime, so the walk visits every page
	calibMaxDriftPct = 10.0
)

var calibSink uint64

type calibrator struct {
	raw   []byte
	scale int // the smoke test divides the kernel's steps by this
}

// newCalibrator maps the walk's buffer outside the Go heap, so it moves
// neither the collector's pacing nor heap_live_mb, and faults it in.
func newCalibrator(scale int) (*calibrator, error) {
	raw, err := syscall.Mmap(-1, 0, calibBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(raw); i += 4096 {
		raw[i] = 1
	}
	return &calibrator{raw: raw, scale: scale}, nil
}

func (c *calibrator) close() error { return syscall.Munmap(c.raw) }

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < calibMixSteps/c.scale; i++ {
		x = splitmix64(x)
	}
	const words = calibBytes / 8
	idx := 0
	for i := 0; i < calibWalkSteps/c.scale; i++ {
		off := idx * 8
		c.raw[off] += byte(x)
		x += uint64(c.raw[off])
		idx = (idx + calibStride) % words
	}
	calibSink = x
	return time.Since(t0)
}

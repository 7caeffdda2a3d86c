// Package sensors models the measurement instruments of the study:
// the Watts Up!-style wall power meter the paper used to capture
// average node power, including the energy integration behind
// Table II's "Computed Energy Consumption" column.
package sensors

import (
	"math"

	"nodecap/internal/simtime"
)

// Sample is one meter reading.
type Sample struct {
	At    simtime.Duration
	Watts float64
}

// Meter accumulates timestamped power readings. The simulated machine
// feeds it one reading per sampling interval (1 s on the real meter);
// noise, if configured, is deterministic so runs are reproducible.
type Meter struct {
	// NoiseWatts is the peak amplitude of deterministic pseudo-noise
	// added to each recorded sample, imitating wall-meter jitter.
	// Zero disables it.
	NoiseWatts float64

	samples []Sample
	nextSeq uint64
}

// NewMeter returns a meter with the given noise amplitude.
func NewMeter(noiseWatts float64) *Meter {
	return &Meter{NoiseWatts: noiseWatts}
}

// TakeBuffer moves old's sample buffer, emptied, into m, so that a
// meter replacing a finished one does not grow a buffer of its own from
// nothing. old is left with no samples.
func (m *Meter) TakeBuffer(old *Meter) {
	m.samples, old.samples = old.samples[:0], nil
}

// Record appends a reading taken at time at. The stored reading is
// clamped at 0 W: pseudo-noise on a near-idle reading can swing below
// zero, and a negative wall sample would poison trapezoidal energy.
func (m *Meter) Record(at simtime.Duration, watts float64) {
	if m.NoiseWatts > 0 {
		watts += m.NoiseWatts * noise(m.nextSeq)
	}
	m.nextSeq++
	if watts < 0 {
		watts = 0
	}
	m.samples = append(m.samples, Sample{At: at, Watts: watts})
}

// noise maps a sequence number to a deterministic value in [-1, 1]
// using a splitmix64-style integer hash.
func noise(seq uint64) float64 {
	z := seq + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z)/float64(math.MaxUint64)*2 - 1
}

// Len reports the number of recorded samples.
func (m *Meter) Len() int { return len(m.samples) }

// Samples returns the recorded readings (shared slice; callers must
// not modify it).
func (m *Meter) Samples() []Sample { return m.samples }

// AverageWatts reports the time-weighted mean power over the recorded
// span, or 0 with no samples. With a single sample it returns that
// sample's value.
func (m *Meter) AverageWatts() float64 {
	switch len(m.samples) {
	case 0:
		return 0
	case 1:
		return m.samples[0].Watts
	}
	span := m.samples[len(m.samples)-1].At - m.samples[0].At
	if span <= 0 {
		return m.samples[0].Watts
	}
	return m.EnergyJoules() / span.Seconds()
}

// WindowAverageWatts reports the time-weighted mean over samples taken
// in the trailing window ending at the last sample. The BMC's control
// loop uses a short window so it reacts to recent consumption.
func (m *Meter) WindowAverageWatts(window simtime.Duration) float64 {
	if len(m.samples) == 0 {
		return 0
	}
	w := m.samples[m.windowStart(window):]
	if len(w) < 2 {
		return w[len(w)-1].Watts
	}
	span := w[len(w)-1].At - w[0].At
	if span <= 0 {
		// Every window sample shares one timestamp (possible when the
		// clock did not advance between recordings): no time base to
		// weight by, so report the latest reading rather than 0/0.
		return w[len(w)-1].Watts
	}
	var joules float64
	for i := 1; i < len(w); i++ {
		dt := (w[i].At - w[i-1].At).Seconds()
		joules += dt * (w[i].Watts + w[i-1].Watts) / 2
	}
	return joules / span.Seconds()
}

// windowStart is the index of the oldest sample within window of the
// latest one. The meter must hold a sample.
func (m *Meter) windowStart(window simtime.Duration) int {
	cutoff := m.samples[len(m.samples)-1].At - window
	start := len(m.samples) - 1
	for start > 0 && m.samples[start-1].At >= cutoff {
		start--
	}
	return start
}

// Trim discards every sample WindowAverageWatts(window) does not read:
// those more than window older than the latest. A long-lived idle node
// calls it now and then so its meter does not grow without bound.
func (m *Meter) Trim(window simtime.Duration) {
	if len(m.samples) > 0 {
		m.samples = m.samples[:copy(m.samples, m.samples[m.windowStart(window):])]
	}
}

// EnergyJoules integrates the samples trapezoidally, the way the
// paper computes energy from the meter trace.
func (m *Meter) EnergyJoules() float64 {
	var joules float64
	for i := 1; i < len(m.samples); i++ {
		dt := (m.samples[i].At - m.samples[i-1].At).Seconds()
		joules += dt * (m.samples[i].Watts + m.samples[i-1].Watts) / 2
	}
	return joules
}

// Last reports the most recent sample; ok is false when none exist.
func (m *Meter) Last() (Sample, bool) {
	if len(m.samples) == 0 {
		return Sample{}, false
	}
	return m.samples[len(m.samples)-1], true
}

// Reset discards all samples but keeps the noise sequence advancing so
// successive runs see different (still deterministic) jitter.
func (m *Meter) Reset() { m.samples = m.samples[:0] }

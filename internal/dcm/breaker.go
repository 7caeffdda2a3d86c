package dcm

import (
	"slices"
	"sort"
	"time"

	"nodecap/internal/telemetry"
)

// Gray-failure defense: per-node circuit breakers (DESIGN.md §12).
//
// Hard failures (dead connections) are already handled by the redial
// backoff; the breaker exists for the failure mode that dominates at
// scale — nodes that are slow-but-alive. A BMC answering just under
// the request timeout holds its chunk of a poll sweep for the whole
// exchange, so a herd of them spread over the chunks stalls the sweep
// for a timeout per chunk. The breaker tracks
// each node's exchange latency (EWMA plus a P² streaming quantile)
// and, when a node is persistently slow or persistently failing,
// opens: the node is skipped until a hold expires, then a single
// half-open probe decides between closing and re-opening. Nodes that
// cycle open/closed within a window are flapping and get quarantined
// under a longer hold, so the fleet stops paying the probe tax for a
// link that cannot hold a verdict.
//
// Cap pushes never consult the breaker: delivering a cap to a sick
// node is exactly the safety-critical operation the defense layer
// exists to protect (they ride the priority lane instead).

// Breaker tuning defaults. A zero BreakerConfig resolves to
// consecutive-failure tripping only; latency tripping, flap detection
// and quarantine each require their threshold to be set.
const (
	// DefaultFailureThreshold is how many consecutive failed exchanges
	// trip the breaker open when BreakerConfig.FailureThreshold is 0.
	DefaultFailureThreshold = 5
	// DefaultSlowConsecutive is how many consecutive over-threshold
	// exchanges trip the breaker when SlowConsecutive is 0.
	DefaultSlowConsecutive = 3
	// DefaultLatencyAlpha is the EWMA smoothing factor when
	// LatencyAlpha is 0.
	DefaultLatencyAlpha = 0.2
	// DefaultStarveSkips is how many consecutive busy-skips of one
	// node's poll slot emit an EvBusyStarve trace event.
	DefaultStarveSkips = 3
	// maxShedLevel caps brownout escalation: level 1 drops history
	// enrichment, level 2 also quarters open-breaker probe cadence.
	maxShedLevel = 2
)

// BreakerConfig tunes the per-node circuit breakers. The zero value
// enables consecutive-failure tripping with package defaults; latency
// tripping engages only when SlowThreshold > 0, and flap quarantine
// only when FlapMax > 0. FailureThreshold < 0 disables the breaker
// entirely (every node is always pollable).
type BreakerConfig struct {
	// FailureThreshold opens the breaker after this many consecutive
	// failed exchanges (0 = DefaultFailureThreshold; < 0 disables the
	// breaker).
	FailureThreshold int

	// SlowThreshold is the exchange latency beyond which a successful
	// sample still counts against the node; SlowConsecutive such
	// exchanges in a row open the breaker. 0 disables latency tripping.
	SlowThreshold   time.Duration
	SlowConsecutive int

	// OpenTimeout is how long an open breaker holds before granting a
	// half-open probe (0 = the manager's RetryMaxDelay).
	OpenTimeout time.Duration

	// FlapWindow/FlapMax: a breaker opening FlapMax times within
	// FlapWindow quarantines the node under QuarantineHold
	// (0 = 4×OpenTimeout). FlapMax 0 disables flap detection.
	FlapWindow     time.Duration
	FlapMax        int
	QuarantineHold time.Duration

	// LatencyAlpha is the EWMA smoothing factor in (0,1]
	// (0 = DefaultLatencyAlpha).
	LatencyAlpha float64
}

// disabled reports whether the breaker is switched off outright.
func (c BreakerConfig) disabled() bool { return c.FailureThreshold < 0 }

// failureThreshold / slowConsecutive / alpha resolve zero fields.
func (c BreakerConfig) failureThreshold() int {
	if c.FailureThreshold == 0 {
		return DefaultFailureThreshold
	}
	return c.FailureThreshold
}

func (c BreakerConfig) slowConsecutive() int {
	if c.SlowConsecutive <= 0 {
		return DefaultSlowConsecutive
	}
	return c.SlowConsecutive
}

func (c BreakerConfig) alpha() float64 {
	if c.LatencyAlpha <= 0 || c.LatencyAlpha > 1 {
		return DefaultLatencyAlpha
	}
	return c.LatencyAlpha
}

// openTimeout resolves the open hold against the manager's backoff cap.
func (c BreakerConfig) openTimeout(retryMax time.Duration) time.Duration {
	if c.OpenTimeout > 0 {
		return c.OpenTimeout
	}
	if retryMax > 0 {
		return retryMax
	}
	return DefaultRetryMaxDelay
}

func (c BreakerConfig) quarantineHold(retryMax time.Duration) time.Duration {
	if c.QuarantineHold > 0 {
		return c.QuarantineHold
	}
	return 4 * c.openTimeout(retryMax)
}

// Breaker state names, surfaced verbatim in NodeStatus.Breaker and the
// dcmctl nodes BREAKER column.
const (
	BreakerClosed      = "closed"
	BreakerOpen        = "open"
	BreakerHalfOpen    = "half-open"
	BreakerQuarantined = "quarantined"
)

// breaker is one node's circuit-breaker state. All fields are guarded
// by Manager.mu; transitions happen under it and are traced there.
type breaker struct {
	state      string // one of the Breaker* names; "" means closed
	until      time.Time
	consecSlow int
	shedSkips  int // probe-cadence counter while shedding (brownout)

	// opens holds recent open-transition times inside FlapWindow
	// (bounded by FlapMax, which is small).
	opens []time.Time

	ewmaNS float64
	p99    p2Quantile
}

func (b *breaker) stateName() string {
	if b.state == "" {
		return BreakerClosed
	}
	return b.state
}

// brkAllow decides whether the poll loop may sample the node this
// round, transitioning open→half-open once the hold expires. Under
// deep brownout shedding (shed >= maxShedLevel), open-breaker probes
// run at a quarter of the eligible cadence — the lowest-value work
// goes first. Callers hold m.mu.
func (m *Manager) brkAllow(n *managedNode, now time.Time, shed int) bool {
	if m.Breaker.disabled() {
		return true
	}
	b := &n.brk
	switch b.stateName() {
	case BreakerClosed, BreakerHalfOpen:
		// Half-open is transient: the in-flight probe's outcome always
		// resolves it (success closes, failure re-opens), and the
		// ownership token admits one operation at a time anyway.
		return true
	default: // open or quarantined
		if m.BreakerNeverProbes {
			return false // harness self-test: a breaker that never heals
		}
		if now.Before(b.until) {
			return false
		}
		if shed >= maxShedLevel {
			if b.shedSkips++; b.shedSkips%4 != 0 {
				return false
			}
		}
		b.state = BreakerHalfOpen
		n.status.Breaker = BreakerHalfOpen
		m.tel.trace.Append(telemetry.Event{Node: n.name, Kind: telemetry.EvBreakerHalfOpen})
		return true
	}
}

// brkTrip opens the node's breaker (closed or half-open → open),
// arming the hold and running flap detection. Callers hold m.mu.
func (m *Manager) brkTrip(n *managedNode, now time.Time, reason string) {
	if m.Breaker.disabled() {
		return
	}
	b := &n.brk
	if s := b.stateName(); s == BreakerOpen || s == BreakerQuarantined {
		return // already held; the hold is not extended, so probes stay bounded
	}
	hold := m.Breaker.openTimeout(m.RetryMaxDelay)
	b.state = BreakerOpen
	b.until = now.Add(hold)
	b.consecSlow = 0
	n.status.Breaker = BreakerOpen
	n.status.BreakerOpens++
	m.tel.breakerOpens.Inc()
	m.tel.trace.Append(telemetry.Event{
		Node: n.name, Kind: telemetry.EvBreakerOpen,
		N: int64(n.status.BreakerOpens), Err: reason,
	})

	if m.Breaker.FlapMax > 0 && m.Breaker.FlapWindow > 0 {
		cut := now.Add(-m.Breaker.FlapWindow)
		keep := b.opens[:0]
		for _, t := range b.opens {
			if t.After(cut) {
				keep = append(keep, t)
			}
		}
		b.opens = append(keep, now)
		if len(b.opens) >= m.Breaker.FlapMax {
			b.state = BreakerQuarantined
			b.until = now.Add(m.Breaker.quarantineHold(m.RetryMaxDelay))
			b.opens = b.opens[:0]
			n.status.Breaker = BreakerQuarantined
			m.tel.quarantines.Inc()
			m.tel.trace.Append(telemetry.Event{
				Node: n.name, Kind: telemetry.EvQuarantine, Err: reason,
			})
		}
	}
}

// brkClose closes the breaker after a healthy exchange (the half-open
// probe succeeded, or a cap push proved the node responsive). Callers
// hold m.mu.
func (m *Manager) brkClose(n *managedNode) {
	b := &n.brk
	if b.stateName() == BreakerClosed {
		return
	}
	b.state = BreakerClosed
	b.until = time.Time{}
	b.consecSlow = 0
	b.shedSkips = 0
	n.status.Breaker = BreakerClosed
	m.tel.breakerCloses.Inc()
	m.tel.trace.Append(telemetry.Event{Node: n.name, Kind: telemetry.EvBreakerClose})
}

// noteExchange records one successful sample exchange's latency (the
// node's own send plus its own await, not the time its await waited on
// the rest of the chunk): EWMA + P² quantile for the status columns and the latency histogram,
// then the latency-trip decision — SlowConsecutive over-threshold
// exchanges open the breaker even though every one of them succeeded
// (slow-but-alive is the gray failure). A fast exchange closes a
// half-open breaker. Callers must NOT hold m.mu.
func (m *Manager) noteExchange(n *managedNode, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tel.exchangeSeconds.Observe(elapsed.Seconds())
	b := &n.brk
	a := m.Breaker.alpha()
	if b.ewmaNS == 0 {
		b.ewmaNS = float64(elapsed.Nanoseconds())
	} else {
		b.ewmaNS += a * (float64(elapsed.Nanoseconds()) - b.ewmaNS)
	}
	b.p99.Observe(float64(elapsed.Nanoseconds()))
	n.status.LatencyEWMA = time.Duration(b.ewmaNS)
	n.status.LatencyP99 = time.Duration(b.p99.Value())

	if m.Breaker.disabled() {
		return
	}
	slow := m.Breaker.SlowThreshold > 0 && elapsed > m.Breaker.SlowThreshold
	if slow {
		b.consecSlow++
		if b.consecSlow >= m.Breaker.slowConsecutive() {
			m.brkTrip(n, m.wallNow(), "slow")
		}
		return
	}
	b.consecSlow = 0
	if b.stateName() == BreakerHalfOpen {
		m.brkClose(n)
	}
}

// brkOnFailure runs the failure-count trip after recordFailure has
// bumped ConsecFailures: threshold reached, or any failure during a
// half-open probe, re-opens. Callers hold m.mu.
func (m *Manager) brkOnFailure(n *managedNode, now time.Time, err error) {
	if m.Breaker.disabled() {
		return
	}
	if n.brk.stateName() == BreakerHalfOpen || n.status.ConsecFailures >= m.Breaker.failureThreshold() {
		// Re-arm from half-open too: the probe failed, so the hold
		// restarts from now.
		n.brk.state = BreakerClosed // let brkTrip re-open (and count the flap)
		m.brkTrip(n, now, err.Error())
	}
}

// p2Quantile is the P² streaming quantile estimator (Jain & Chlamtac,
// CACM 1985): five markers track the running quantile in O(1) space
// and O(1) per observation, no sample buffer. Deterministic — the
// estimate is a pure function of the observation sequence — which is
// what lets the chaos harness replay latency verdicts bit-identically.
type p2Quantile struct {
	p    float64    // target quantile, e.g. 0.99
	n    int        // observations seen
	q    [5]float64 // marker heights
	pos  [5]float64 // actual marker positions (1-based)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increments per observation
}

// Observe folds one sample into the estimate.
func (e *p2Quantile) Observe(v float64) {
	p := e.p
	if p <= 0 || p >= 1 {
		p = 0.99
		e.p = p
	}
	if e.n < 5 {
		e.q[e.n] = v
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
			}
			e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			e.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
		}
		return
	}
	e.n++

	// Find the cell v falls into, widening the extremes if needed.
	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}

	// Nudge interior markers toward their desired positions with the
	// piecewise-parabolic (P²) update, falling back to linear when the
	// parabola would cross a neighbour.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			qp := e.parabolic(i, s)
			if e.q[i-1] < qp && qp < e.q[i+1] {
				e.q[i] = qp
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

func (e *p2Quantile) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *p2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate (the exact order
// statistic while fewer than five samples have arrived).
func (e *p2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		s := e.q // sorted as a copy: Observe still fills q in arrival order
		slices.Sort(s[:e.n])
		p := e.p
		if p <= 0 || p >= 1 {
			p = 0.99
		}
		i := int(p * float64(e.n))
		if i >= e.n {
			i = e.n - 1
		}
		return s[i]
	}
	return e.q[2]
}

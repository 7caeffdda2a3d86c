package bmc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomRunCase draws one tuning, plant, starting state and source over
// the edge values the fleet engine's property test draws (no
// proportional descent, fail-safe disabled, recovery below 1, fail-safe
// floors unset and out of range, plausibility off or so tight that full
// speed reads as a fault, stuck-at detection), plus given readings that
// fault: dropouts, implausible and non-finite watts, and a reading
// equal to the last one, which a stuck-at tracker counts.
func randomRunCase(rng *rand.Rand) (Config, Envelope, State, Stats, Pos, Source) {
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	c := FailSafeConfig()
	c.Smoothing = pick(1, 0.6, 0.3, 0.05)
	c.GuardBandWatts = pick(0, 0.5, 2)
	c.HysteresisWatts = pick(0, 2, 5)
	c.GateRelaxHysteresisWatts = pick(0, 0.3, 1.5)
	c.StepWattsPerPState = pick(0, 0.5, 2, 6)
	c.FaultToleranceTicks = int(pick(0, 1, 5))
	c.RecoveryTicks = int(pick(0, 1, 10))
	c.FailSafePState = int(pick(0, -3, 4, 12, 15, 16, 99))
	c.StuckSensorTicks = int(pick(0, 0, 4))
	switch rng.Intn(4) { // case 3 keeps the default 50..400 W
	case 0:
		c.MinPlausibleWatts, c.MaxPlausibleWatts = 0, 0
	case 1:
		c.MinPlausibleWatts, c.MaxPlausibleWatts = 124, 150
	case 2:
		c.MinPlausibleWatts, c.MaxPlausibleWatts = 0, 140
	}
	lin := &Linear{P0Watts: 157, WattsPerPState: 2, WattsPerGate: 1.2, NoiseWatts: pick(0.4, 0.4, 0)}
	env := Resolve(c, 16, 4, lin.Watts(Pos{PState: 15, Gating: 4}))

	st := State{
		Smoothed:   110 + 50*rng.Float64(),
		LastRaw:    pick(140, 157, lin.Watts(Pos{})),
		BadTicks:   int32(rng.Intn(7)),
		SaneTicks:  int32(rng.Intn(12)),
		StuckRun:   int32(rng.Intn(6)),
		HaveEWMA:   rng.Intn(4) != 0,
		HaveRaw:    rng.Intn(2) == 0,
		FailSafe:   rng.Intn(3) == 0,
		Infeasible: rng.Intn(4) == 0,
	}
	var stats Stats
	stats.SensorFaults = uint64(rng.Intn(100))
	stats.StepsDown = uint64(rng.Intn(100))
	pos := Pos{PState: int32(rng.Intn(16)), Gating: int32(rng.Intn(5))}

	src := Source{Plant: lin, Noise: rng.Uint64()}
	if rng.Intn(3) == 0 {
		src = Source{Watts: pick(0, 140, 157, 30, 500, math.NaN(), math.Inf(1), -5), Delivered: rng.Intn(4) != 0}
		if rng.Intn(2) == 0 {
			st.LastRaw = src.Watts
		}
	}
	return c, env, st, stats, pos, src
}

// TestRunBatchEqualsSinglePeriods pins what lets the fleet engine hand
// the law a whole batch: Run over n periods — called again after each
// period that raised an event, as the engine does — leaves State, Stats,
// the position and the source's noise word bit-identical to n calls of
// one period each, and stops exactly at every period that raised an
// event, with the same events, so a caller mirrors them in order.
func TestRunBatchEqualsSinglePeriods(t *testing.T) {
	type event struct {
		period int
		ev     Events
	}
	cases := 5000
	if testing.Short() {
		cases = 1000
	}
	for k := 0; k < cases; k++ {
		rng := rand.New(rand.NewSource(int64(k)))
		cfg, env, st0, stats0, pos0, src0 := randomRunCase(rng)
		capW := 100 + float64(rng.Intn(900))/10
		tiered := rng.Intn(4) == 0
		n := rng.Intn(300)
		if rng.Intn(8) == 0 {
			n = rng.Intn(3)
		}

		st, stats, pos, src := st0, stats0, pos0, src0
		var batched []event
		for done := 0; done < n; {
			var ev Events
			var ran int
			pos, ev, ran = Run(&cfg, &env, capW, &st, &stats, pos, &src, n-done, tiered)
			if ran < 1 || ran > n-done || (ev == 0 && ran != n-done) {
				t.Fatalf("case %d: Run(%d) ran %d periods with events %b", k, n-done, ran, ev)
			}
			done += ran
			if ev != 0 {
				batched = append(batched, event{done - 1, ev})
			}
		}

		wst, wstats, wpos, wsrc := st0, stats0, pos0, src0
		var single []event
		for p := 0; p < n; p++ {
			var ev Events
			var ran int
			wpos, ev, ran = Run(&cfg, &env, capW, &wst, &wstats, wpos, &wsrc, 1, tiered)
			if ran != 1 {
				t.Fatalf("case %d: Run(1) ran %d periods", k, ran)
			}
			if ev != 0 {
				single = append(single, event{p, ev})
			}
		}

		got := fmt.Sprintf("%+v %+v %+v %d %v", st, stats, pos, src.Noise, batched)
		want := fmt.Sprintf("%+v %+v %+v %d %v", wst, wstats, wpos, wsrc.Noise, single)
		// %+v prints floats in a short form; compare their bits too.
		same := math.Float64bits(st.Smoothed) == math.Float64bits(wst.Smoothed) &&
			math.Float64bits(st.LastRaw) == math.Float64bits(wst.LastRaw)
		if got != want || !same {
			t.Fatalf("case %d (n=%d tiered=%v tuning=%+v source=%+v) diverged:\nbatched: %s\nsingle:  %s",
				k, n, tiered, cfg, src0, got, want)
		}
	}
}

// TestLanesMatchGeneralPeriods pins SteadyLanes to Run's general
// period: the fleet engine's sequence — SteadyLanes over the settled
// nodes of a group of one to four, then Run on what is left of each
// node, resumed after each event — leaves every node's State, Stats,
// position and noise word bit-identical to n general periods run one
// at a time, each fed the plant's next noise draw as a given reading,
// so the reference never enters a steady loop. The entry states are
// randomRunCase's: EWMA unprimed, fail-safe, bad-tick and stuck-at
// runs, smoothing 1, a noiseless sensor, and a 124-150 W plausible
// range that a move can leave, which stops the group.
func TestLanesMatchGeneralPeriods(t *testing.T) {
	cases := 5000
	if testing.Short() {
		cases = 1000
	}
	type node struct {
		st    State
		stats Stats
		pos   Pos
		noise uint64
		capW  float64
	}
	var steady, moved, stopped, padded, reset int
	for k := 0; k < cases; k++ {
		rng := rand.New(rand.NewSource(int64(k)))
		cfg, env, st, stats, pos, src := randomRunCase(rng)
		lin := src.Plant
		if lin == nil {
			lin = &Linear{P0Watts: 157, WattsPerPState: 2, WattsPerGate: 1.2, NoiseWatts: 0.4}
		}
		nodes := make([]node, 1+rng.Intn(4))
		for j := range nodes {
			if j > 0 {
				_, _, st, stats, pos, _ = randomRunCase(rng)
			}
			nodes[j] = node{st, stats, pos, rng.Uint64(), 100 + float64(rng.Intn(900))/10}
			if rng.Intn(2) == 0 {
				// A cap 0.2-0.8 W above an odd watt: the node dithers
				// between two P-states.
				nodes[j].capW = float64(127+2*rng.Intn(15)) + 0.2 + 0.6*rng.Float64()
			}
		}
		n := rng.Intn(300)

		got := slices.Clone(nodes)
		var group []Lane
		var at []int
		for j := range got {
			if g := &got[j]; Settled(&cfg, &env, lin, &g.st, g.pos) {
				group = append(group, Lane{St: &g.st, Stats: &g.stats, Pos: g.pos, Noise: g.noise, CapW: g.capW})
				at = append(at, j)
				if g.st.BadTicks > 0 {
					reset++
				}
			}
		}
		ran := 0
		if len(group) > 0 {
			ran = SteadyLanes(&cfg, &env, lin, group, n)
			if ran < 0 || ran > n {
				t.Fatalf("case %d: SteadyLanes(%d) ran %d periods", k, n, ran)
			}
			for l, j := range at {
				if group[l].Pos != got[j].pos {
					moved++
				}
				got[j].pos, got[j].noise = group[l].Pos, group[l].Noise
			}
		}
		if ran > 0 {
			steady++
			if ran < n {
				stopped++
			}
			if len(group) < 4 {
				padded++
			}
		}
		for j := range got {
			g := &got[j]
			done := 0
			if slices.Contains(at, j) {
				done = ran
			}
			src := Source{Plant: lin, Noise: g.noise}
			for done < n {
				var r int
				g.pos, _, r = Run(&cfg, &env, g.capW, &g.st, &g.stats, g.pos, &src, n-done, false)
				done += r
			}
			g.noise = src.Noise
		}

		for j, w := range nodes {
			for p := 0; p < n; p++ {
				w.noise += splitmixGamma
				f := float64(splitmix(w.noise)>>11) / (1 << 53)
				given := Source{Watts: lin.Watts(w.pos) + (f*2-1)*lin.NoiseWatts, Delivered: true}
				w.pos, _, _ = Run(&cfg, &env, w.capW, &w.st, &w.stats, w.pos, &given, 1, false)
			}
			g := got[j]
			gs := fmt.Sprintf("%+v %+v %+v %d", g.st, g.stats, g.pos, g.noise)
			ws := fmt.Sprintf("%+v %+v %+v %d", w.st, w.stats, w.pos, w.noise)
			same := math.Float64bits(g.st.Smoothed) == math.Float64bits(w.st.Smoothed) &&
				math.Float64bits(g.st.LastRaw) == math.Float64bits(w.st.LastRaw)
			if gs != ws || !same {
				t.Fatalf("case %d node %d of %d (n=%d ran=%d tuning=%+v entry=%+v cap=%v) diverged:\nengine:  %s\ngeneral: %s",
					k, j, len(nodes), n, ran, cfg, nodes[j].st, w.capW, gs, ws)
			}
		}
	}
	// The comparison only bites where lanes ran: moving, stopping before
	// a reading Run must vet, padded with ghosts, after a bad-tick run.
	if steady == 0 || moved == 0 || stopped == 0 || padded == 0 || reset == 0 {
		t.Fatalf("lanes ran in %d cases, moved %d times, stopped early in %d cases, were padded in %d and reset bad ticks in %d",
			steady, moved, stopped, padded, reset)
	}
}

// TestRunZeroPeriods: n ≤ 0 runs nothing and touches nothing.
func TestRunZeroPeriods(t *testing.T) {
	cfg := FailSafeConfig()
	env := Resolve(cfg, 16, 4, 122.2)
	st := State{Smoothed: 150, HaveEWMA: true}
	src := Source{Plant: &Linear{P0Watts: 157, NoiseWatts: 0.4}, Noise: 42}
	for _, n := range []int{0, -1} {
		pos, ev, ran := Run(&cfg, &env, 140, &st, &Stats{}, Pos{PState: 3}, &src, n, false)
		if pos != (Pos{PState: 3}) || ev != 0 || ran != 0 || src.Noise != 42 || st != (State{Smoothed: 150, HaveEWMA: true}) {
			t.Fatalf("Run(n=%d) = %+v, %b, %d; noise %d, state %+v", n, pos, ev, ran, src.Noise, st)
		}
	}
}

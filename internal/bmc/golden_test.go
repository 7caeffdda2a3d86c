package bmc

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nodecap/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trajectory_*.golden from this run")

// sensorFault is how a script step corrupts the power sensor; each
// golden case realises it with whatever its test plant offers.
type sensorFault int

const (
	sensorOK      sensorFault = iota
	sensorDropout             // no sample delivered (NaN on a plant without PowerSampler)
	sensorSpike               // a delivered reading far outside the plausible envelope
	sensorStuck               // the sensor keeps delivering the value it last read
)

// goldenStep is one script entry: an optional policy push and an
// optional sensor-fault switch, then ticks control periods.
type goldenStep struct {
	note    string
	push    bool
	enabled bool
	capW    float64 // relative to the linearPlant envelope; cases add their shift
	fault   sensorFault
	setFlt  bool
	ticks   int
}

// goldenScript walks every branch of the law: disabled ticks, DVFS-only
// convergence and dither, a same-policy re-push, DVFS saturation and
// the gating ladder, an infeasible cap pinned at the floor (and pushed
// again), eager ungating and the slow climb back, dropouts into fail-safe, a re-push
// that must preserve fail-safe, an interrupted recovery, a stuck-at
// run, a changed cap that overrides fail-safe, and a disable.
var goldenScript = []goldenStep{
	{note: "disabled", ticks: 3},
	{note: "cap 140", push: true, enabled: true, capW: 140, ticks: 40},
	{note: "re-push 140", push: true, enabled: true, capW: 140, ticks: 5},
	{note: "cap 126 (gating ladder)", push: true, enabled: true, capW: 126, ticks: 60},
	{note: "cap 100 (infeasible)", push: true, enabled: true, capW: 100, ticks: 38},
	{note: "re-push 100", push: true, enabled: true, capW: 100, ticks: 2},
	{note: "cap 150 (relax)", push: true, enabled: true, capW: 150, ticks: 60},
	{note: "dropout", setFlt: true, fault: sensorDropout, ticks: 8},
	{note: "re-push 150 during dropout", push: true, enabled: true, capW: 150, ticks: 2},
	{note: "sensor back", setFlt: true, fault: sensorOK, ticks: 4},
	{note: "spike interrupts recovery", setFlt: true, fault: sensorSpike, ticks: 3},
	{note: "sensor back", setFlt: true, fault: sensorOK, ticks: 20},
	{note: "stuck-at", setFlt: true, fault: sensorStuck, ticks: 12},
	{note: "cap 145 during stuck-at", push: true, enabled: true, capW: 145, ticks: 10},
	{note: "sensor back", setFlt: true, fault: sensorOK, ticks: 20},
	{note: "disable", push: true, ticks: 3},
	{note: "cap 135", push: true, enabled: true, capW: 135, ticks: 30},
}

// goldenCase binds the script to one test plant.
type goldenCase struct {
	name     string
	cfg      Config
	plant    Plant
	capShift float64
	setFault func(sensorFault)
	pos      func() string
}

func goldenCases() []goldenCase {
	// Uniform path, study tuning: no watchdog, so faults are counted
	// and never acted on. flooredPlant adds the platform floor so the
	// infeasible flag is exercised.
	lin := newLinearPlant()
	linBase := lin.base
	uniform := goldenCase{
		name: "uniform", cfg: DefaultConfig(), plant: &flooredPlant{lin},
		setFault: func(f sensorFault) {
			switch f {
			case sensorDropout:
				lin.base = math.NaN()
			case sensorSpike:
				lin.base = linBase + 1000
			default: // stuck-at is undetectable with StuckSensorTicks == 0
				lin.base = linBase
			}
		},
		pos: func() string { return fmt.Sprintf("ps=%d gt=%d", lin.pstate, lin.gating) },
	}

	// Fail-safe path: hardened tuning with stuck-at detection, over a
	// sensor that can drop out. The healthy sensor carries a small
	// deterministic ripple: stuck-at detection assumes a naturally
	// noisy sensor, and a steady linearPlant reads exactly constant.
	fp := &faultPlant{linearPlant: newLinearPlant()}
	reads := 0
	fcfg := FailSafeConfig()
	fcfg.StuckSensorTicks = 4
	fcfg.FailSafePState = 12
	failsafe := goldenCase{
		name: "failsafe", cfg: fcfg, plant: fp,
		setFault: func(f sensorFault) {
			switch f {
			case sensorDropout:
				fp.override = func() (float64, bool) { return 0, false }
			case sensorSpike:
				fp.override = func() (float64, bool) { return 1e6, true }
			case sensorStuck:
				frozen := fp.PowerWatts()
				fp.override = func() (float64, bool) { return frozen, true }
			default:
				fp.override = func() (float64, bool) {
					reads++
					return fp.PowerWatts() + 0.01*float64(reads%3), true
				}
			}
		},
		pos: func() string { return fmt.Sprintf("ps=%d gt=%d", fp.pstate, fp.gating) },
	}

	// Priority path: the tier ladder and the per-tier fail-safe clamp.
	tp := newTierPlant()
	tpBase := tp.base
	tcfg := FailSafeConfig()
	tcfg.FailSafePState = 10
	priority := goldenCase{
		name: "priority", cfg: tcfg, plant: tp, capShift: 22,
		setFault: func(f sensorFault) {
			switch f {
			case sensorDropout:
				tp.base = math.NaN()
			case sensorSpike:
				tp.base = -1000
			default:
				tp.base = tpBase
			}
		},
		pos: func() string {
			return fmt.Sprintf("serv=%d batch=%d sg=%d bg=%d", tp.servP, tp.batchP, tp.sharedG, tp.batchG)
		},
	}
	return []goldenCase{uniform, failsafe, priority}
}

// TestTrajectoryGolden replays goldenScript through the real BMC over
// the package's three test plants and compares the per-tick trajectory
// — plant position, %b smoothed watts, health flags, every Stats
// counter, and the decision trace — byte for byte against files
// recorded before the law moved into kernel.go. A change to the law
// that alters any decision on any tick fails here, which is what makes
// a deliberate change to it reviewable: the diff of the golden is the
// behavioural diff.
func TestTrajectoryGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			b := New(c.cfg, c.plant)
			tr := telemetry.NewTrace(4096)
			tr.SetWallClock(nil)
			b.SetTelemetry(telemetry.NewRegistry(), tr, c.name)

			var got bytes.Buffer
			tick := 0
			c.setFault(sensorOK)
			for _, st := range goldenScript {
				fmt.Fprintf(&got, "# %s\n", st.note)
				if st.setFlt {
					c.setFault(st.fault)
				}
				if st.push {
					p := Policy{Enabled: st.enabled}
					if st.enabled {
						p.CapWatts = st.capW + c.capShift
					}
					fmt.Fprintf(&got, "push %v/%b err=%v\n", p.Enabled, p.CapWatts, b.SetPolicy(p))
				}
				for i := 0; i < st.ticks; i++ {
					tick++
					tr.SetTick(int64(tick))
					b.Tick()
					s, h := b.Stats(), b.Health()
					fmt.Fprintf(&got, "t=%d %s sm=%b fs=%v inf=%v stats=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
						tick, c.pos(), b.SmoothedWatts(), h.FailSafe, h.InfeasibleCap,
						s.Ticks, s.StepsDown, s.StepsUp, s.GateEscalate, s.GateRelax,
						s.OverCapTicks, s.AtFloorTicks, s.BatchSteals, s.FloorHolds, s.FloorBreaks,
						s.SensorFaults, s.FailSafeEntries, s.FailSafeTicks)
				}
			}
			fmt.Fprintf(&got, "# trace\n")
			for _, ev := range tr.Tail(4096, "") {
				fmt.Fprintf(&got, "t=%d %s n=%d\n", ev.Tick, ev.Kind, ev.N)
			}

			path := filepath.Join("testdata", "trajectory_"+c.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("%s: first drift at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: length drifted: got %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}

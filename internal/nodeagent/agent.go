// Package nodeagent hosts a simulated node as a long-running service:
// it owns the machine (which is single-threaded by design), advances
// its virtual clock, optionally runs workloads in a loop, and exposes
// the BMC management surface so an ipmi.Server can serve it
// concurrently. Management commands are marshalled onto the machine's
// goroutine and applied at safe points — between idle slices, or at
// BMC control ticks while a workload is running, which is exactly when
// real out-of-band policy changes take effect.
package nodeagent

import (
	"sync"
	"time"

	"nodecap/internal/ipmi"
	"nodecap/internal/machine"
	"nodecap/internal/simtime"
)

// Options configures an agent.
type Options struct {
	// Workload, when non-nil, builds workload instances the agent runs
	// back to back (a busy node). Nil means the node idles.
	Workload func() machine.Workload
	// IdleSlice is the virtual time advanced per idle iteration.
	IdleSlice simtime.Duration
	// Throttle is wall-clock sleep per idle slice so an idle daemon
	// does not spin a host CPU; zero free-runs (tests).
	Throttle time.Duration
	// Tier is the priority tier the node advertises through its BMC
	// capabilities (ipmi.TierLow or ipmi.TierHigh): a DCM registering
	// this node auto-classifies it for weighted budget allocation.
	Tier uint8
}

// powerWindow is the span PowerReading's average covers, and so all an
// idle node's meter has to remember.
const powerWindow = 10 * simtime.Millisecond

// Agent hosts one machine.
type Agent struct {
	opts Options
	cmds chan func(*machine.Machine)

	mu       sync.Mutex
	lastRun  *machine.RunResult
	runCount int

	trimAt int // meter length at which idleSlice next trims; loop's own

	stop chan struct{}
	done chan struct{}
}

// New builds an agent around cfg. The agent installs its command-drain
// hook into the machine configuration.
func New(cfg machine.Config, opts Options) *Agent {
	if opts.IdleSlice <= 0 {
		opts.IdleSlice = simtime.Millisecond
	}
	a := &Agent{
		opts: opts,
		cmds: make(chan func(*machine.Machine), 64),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	prev := cfg.ControlHook
	cfg.ControlHook = func(m *machine.Machine) {
		if prev != nil {
			prev(m)
		}
		a.drain(m)
	}
	m := machine.New(cfg)
	go a.loop(m)
	return a
}

// loop is the machine-owner goroutine.
func (a *Agent) loop(m *machine.Machine) {
	defer close(a.done)
	for {
		select {
		case <-a.stop:
			a.drain(m)
			return
		default:
		}
		a.drain(m)
		if a.opts.Workload != nil {
			res := m.RunWorkload(a.opts.Workload())
			a.mu.Lock()
			a.lastRun = &res
			a.runCount++
			a.mu.Unlock()
			continue
		}
		a.idleSlice(m)
		if a.opts.Throttle > 0 {
			time.Sleep(a.opts.Throttle)
		}
	}
}

// idleSlice advances the idle node by one slice. RunWorkload resets the
// meter but an idle node never runs one, so its meter is trimmed to
// powerWindow here — each time it has doubled, which amortises the
// copying over the slices in between.
func (a *Agent) idleSlice(m *machine.Machine) {
	m.AdvanceIdle(a.opts.IdleSlice)
	if meter := m.Meter(); meter.Len() >= a.trimAt {
		meter.Trim(powerWindow)
		a.trimAt = max(1024, 2*meter.Len())
	}
}

// drain applies queued management commands.
func (a *Agent) drain(m *machine.Machine) {
	for {
		select {
		case f := <-a.cmds:
			f(m)
		default:
			return
		}
	}
}

// Do runs f on the machine goroutine and waits for it.
func (a *Agent) Do(f func(*machine.Machine)) {
	doneCh := make(chan struct{})
	select {
	case a.cmds <- func(m *machine.Machine) {
		f(m)
		close(doneCh)
	}:
	case <-a.done:
		return
	}
	select {
	case <-doneCh:
	case <-a.done:
	}
}

// Stop halts the loop after the current run or idle slice.
func (a *Agent) Stop() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

// LastRun reports the most recent workload result and how many runs
// have completed.
func (a *Agent) LastRun() (machine.RunResult, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var r machine.RunResult
	if a.lastRun != nil {
		r = *a.lastRun
	}
	return r, a.runCount
}

// --- ipmi.NodeControl ------------------------------------------------

var _ ipmi.NodeControl = (*Agent)(nil)

// DeviceInfo identifies the simulated platform.
func (a *Agent) DeviceInfo() ipmi.DeviceInfo {
	return ipmi.DeviceInfo{
		DeviceID:       0x20,
		FirmwareMajor:  1,
		FirmwareMinor:  0,
		ManufacturerID: 343,    // Intel's IANA enterprise number
		ProductID:      0x0B2D, // arbitrary S2R2-family stand-in
	}
}

// PowerReading reports the node's current and recent-average power.
func (a *Agent) PowerReading() ipmi.PowerReading {
	var out ipmi.PowerReading
	a.Do(func(m *machine.Machine) { out = powerReading(m) })
	return out
}

func powerReading(m *machine.Machine) ipmi.PowerReading {
	out := ipmi.PowerReading{
		CurrentWatts: m.PowerWatts(),
		AverageWatts: m.Meter().WindowAverageWatts(powerWindow),
	}
	if out.AverageWatts == 0 {
		out.AverageWatts = out.CurrentWatts
	}
	return out
}

// SetPowerLimit applies a capping policy. An infeasible cap (below
// the platform floor) is still applied — the paper's 120 W rows depend
// on that — so it is NOT a wire error; the condition is surfaced
// through Health().InfeasibleCap instead, where the manager reads it
// without treating the node as failed.
func (a *Agent) SetPowerLimit(lim ipmi.PowerLimit) error {
	a.Do(func(m *machine.Machine) {
		if lim.Enabled {
			m.SetPolicy(lim.CapWatts)
		} else {
			m.SetPolicy(0)
		}
	})
	return nil
}

// PowerLimit reports the active policy.
func (a *Agent) PowerLimit() ipmi.PowerLimit {
	var out ipmi.PowerLimit
	a.Do(func(m *machine.Machine) {
		p := m.BMC().Policy()
		out = ipmi.PowerLimit{Enabled: p.Enabled, CapWatts: p.CapWatts}
	})
	return out
}

// PStateInfo reports DVFS state.
func (a *Agent) PStateInfo() ipmi.PStateInfo {
	var out ipmi.PStateInfo
	a.Do(func(m *machine.Machine) {
		out = ipmi.PStateInfo{
			Index:   uint8(m.Core().PStateIndex()),
			Count:   uint8(len(m.Core().PStates())),
			FreqMHz: uint16(m.Core().PState().FreqMHz),
		}
	})
	return out
}

// GatingLevel reports the sub-DVFS ladder position.
func (a *Agent) GatingLevel() int {
	var out int
	a.Do(func(m *machine.Machine) { out = m.GatingLevel() })
	return out
}

// Capabilities reports the trackable cap range and advertised tier.
func (a *Agent) Capabilities() ipmi.Capabilities {
	var out ipmi.Capabilities
	a.Do(func(m *machine.Machine) {
		out = ipmi.Capabilities{
			MinCapWatts: m.CapFloorWatts(),
			MaxCapWatts: 250,
			Tier:        a.opts.Tier,
		}
	})
	return out
}

// Health reports the BMC's defensive-controller status.
func (a *Agent) Health() ipmi.Health {
	var out ipmi.Health
	a.Do(func(m *machine.Machine) {
		h := m.BMC().Health()
		out = ipmi.Health{
			FailSafe:      h.FailSafe,
			SensorFaults:  uint32(h.SensorFaults),
			InfeasibleCap: h.InfeasibleCap,
		}
	})
	return out
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"nodecap/internal/daemon"
	"nodecap/internal/dcm"
	"nodecap/internal/faults"
	"nodecap/internal/ipmi"
	"nodecap/internal/machine"
	"nodecap/internal/nodeagent"
	"nodecap/internal/telemetry"
)

func TestParseFlagsDefaultsAndOverrides(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Listen != "127.0.0.1:9650" || o.MetricsAddr != "" {
		t.Errorf("defaults: %+v", o)
	}
	if o.Poll != time.Second {
		t.Errorf("defaults: %+v", o)
	}

	o, err = parseFlags([]string{
		"-listen", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-poll", "250ms",
		"-budget", "420",
		"-group", "a,b,c",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.MetricsAddr != "127.0.0.1:0" || o.Poll != 250*time.Millisecond ||
		o.Budget != 420 || o.Group != "a,b,c" {
		t.Errorf("overrides: %+v", o)
	}

	if _, err := parseFlags([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	// A sweep reads its nodes as waves from one goroutine; there is no
	// worker count to set.
	if _, err := parseFlags([]string{"-poll-workers", "3"}, io.Discard); err == nil {
		t.Error("-poll-workers accepted")
	}
}

// testHarness is one simulated node behind a fault-injecting transport
// plus a daemon dialed through it.
type testHarness struct {
	agent     *nodeagent.Agent
	srv       *ipmi.Server
	transport *faults.Transport
	d         *daemon.Daemon
}

func newHarness(t *testing.T) *testHarness {
	t.Helper()
	h := &testHarness{}
	h.agent = nodeagent.New(machine.Romley(), nodeagent.Options{})
	t.Cleanup(h.agent.Stop)
	h.srv = ipmi.NewServer(h.agent)
	addr, err := h.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.srv.Close() })
	h.transport = faults.New(faults.Profile{Seed: 1})

	opts := daemon.Options{
		Listen:      "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Poll:        time.Hour, // tests poll explicitly
		RetryBase:   time.Nanosecond,
		RetryMax:    time.Nanosecond,
		StaleAfter:  dcm.DefaultStaleAfter,
	}
	dial := func(a string) (dcm.BMC, error) {
		conn, err := h.transport.Dial("tcp", a, time.Second)
		if err != nil {
			return nil, err
		}
		c := ipmi.NewClientConn(conn)
		c.SetRequestTimeout(time.Second)
		return c, nil
	}
	d, err := daemon.Start(opts, dial, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	h.d = d

	if resp := d.Handle(dcm.Request{Op: "add", Name: "sim0", Addr: addr}); resp.Error != "" {
		t.Fatalf("add: %s", resp.Error)
	}
	return h
}

func (h *testHarness) scrape(t *testing.T) map[string]float64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", h.d.MetricsAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out
}

// TestDaemonServesMetrics: the -metrics-addr surface end to end — cap
// pushes and polls move the counters, the wire-level series are
// advertised, and a partition drives the backoff counter up.
func TestDaemonServesMetrics(t *testing.T) {
	h := newHarness(t)

	if resp := h.d.Handle(dcm.Request{Op: "setcap", Name: "sim0", Cap: 145}); resp.Error != "" {
		t.Fatalf("setcap: %s", resp.Error)
	}
	h.d.Manager().Poll()

	m := h.scrape(t)
	if m["dcm_cap_pushes_total"] < 1 {
		t.Errorf("dcm_cap_pushes_total = %v, want >= 1", m["dcm_cap_pushes_total"])
	}
	if m["dcm_polls_total"] < 1 {
		t.Errorf("dcm_polls_total = %v, want >= 1", m["dcm_polls_total"])
	}
	if m["dcm_nodes"] != 1 || m["dcm_nodes_reachable"] != 1 {
		t.Errorf("fleet gauges: nodes=%v reachable=%v", m["dcm_nodes"], m["dcm_nodes_reachable"])
	}
	if _, ok := m["ipmi_requests_total"]; !ok {
		t.Error("ipmi_requests_total not advertised")
	}
	if m["dcm_poll_seconds_count"] < 1 {
		t.Errorf("dcm_poll_seconds_count = %v, want >= 1", m["dcm_poll_seconds_count"])
	}

	// Partition the node: dials fail and in-flight writes are dropped,
	// so the next polls must arm backoff and drop reachability.
	h.transport.SetProfile(faults.Profile{Seed: 1, DialErrorProb: 1, DropWrites: true})
	before := m["dcm_backoffs_armed_total"]
	h.d.Manager().Poll()
	h.d.Manager().Poll()
	m = h.scrape(t)
	if m["dcm_backoffs_armed_total"] <= before {
		t.Errorf("dcm_backoffs_armed_total stuck at %v under a full partition", m["dcm_backoffs_armed_total"])
	}
	if m["dcm_nodes_reachable"] != 0 {
		t.Errorf("dcm_nodes_reachable = %v after partition, want 0", m["dcm_nodes_reachable"])
	}
}

// TestDaemonServesTrace: /trace emits NDJSON decision events, newest
// last, filterable by node.
func TestDaemonServesTrace(t *testing.T) {
	h := newHarness(t)
	if resp := h.d.Handle(dcm.Request{Op: "setcap", Name: "sim0", Cap: 150}); resp.Error != "" {
		t.Fatalf("setcap: %s", resp.Error)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/trace?node=sim0", h.d.MetricsAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []telemetry.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no trace events after a cap push")
	}
	found := false
	for _, ev := range events {
		if ev.Kind == telemetry.EvCapPush && ev.Node == "sim0" && ev.Watts == 150 {
			found = true
		}
	}
	if !found {
		t.Errorf("no cap-push event for sim0 in %+v", events)
	}

	// The control plane serves the same trace via the "trace" op.
	tr := h.d.Handle(dcm.Request{Op: "trace", Name: "sim0"})
	if !tr.OK || len(tr.Trace) == 0 {
		t.Errorf("trace op: %+v", tr)
	}
}

// TestMetricsDisabledByDefault: no -metrics-addr, no HTTP listener.
func TestMetricsDisabledByDefault(t *testing.T) {
	opts := daemon.Options{Listen: "127.0.0.1:0", Poll: time.Hour}
	d, err := daemon.Start(opts, func(string) (dcm.BMC, error) { return nil, fmt.Errorf("no nodes") }, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.MetricsAddr != "" {
		t.Errorf("MetricsAddr = %q, want empty", d.MetricsAddr)
	}
}

// Command dcmd runs the Data Center Manager: it maintains IPMI
// connections to a fleet of simulated nodes (see cmd/nodesimd),
// monitors their power, and exposes the JSON control plane that
// cmd/dcmctl drives.
//
// Usage:
//
//	dcmd -listen 127.0.0.1:9650 -poll 1s -metrics-addr 127.0.0.1:9651
//
// With -state-dir the registry, desired caps and any group budget are
// journaled crash-safely; a restarted dcmd reloads them and reconciles
// every node's live policy back to the desired state within one poll.
// With -metrics-addr the daemon serves /metrics (Prometheus text
// exposition) and /trace (NDJSON control-decision trace) over HTTP.
//
// Two daemons sharing a lease file form a primary/standby pair. The
// standby replicates the primary's journal and takes over, at a higher
// lease epoch, when the lease lapses; the nodes refuse pushes carrying
// an older epoch, so a deposed primary cannot actuate the fleet:
//
//	dcmd -state-dir /srv/a -replica-addr :9660 -lease /shared/dcm.lease
//	dcmd -state-dir /srv/b -standby-of primary:9660 -lease /shared/dcm.lease
//
// With -shards N one daemon runs N leaf managers, each owning a
// consistent-hash shard of the fleet, under an aggregator that routes
// per-node ops to the owner and cascades the budget across the leaves
// (DESIGN §13). -shards refuses the HA flags and -group:
//
//	dcmd -shards 4 -state-dir /srv/dcm -budget 40000 -aggregator 5s
//
// Every shape comes up through daemon.Start (internal/daemon). This
// command turns flags into daemon.Options, and SIGTERM/SIGINT into a
// graceful Shutdown: polling drains, the journal compacts, and the
// lease is released so the peer can take over without waiting out the
// TTL.
package main

import (
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nodecap/internal/daemon"
	"nodecap/internal/dcm"
	"nodecap/internal/dcm/store"
	"nodecap/internal/ipmi"
)

// parseFlags parses args into the daemon's options (no global flag
// state, so tests can call it repeatedly).
func parseFlags(args []string, stderr io.Writer) (daemon.Options, error) {
	fs := flag.NewFlagSet("dcmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o daemon.Options
	fs.StringVar(&o.Listen, "listen", "127.0.0.1:9650", "control-plane address")
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "HTTP address for /metrics and /trace (empty = disabled)")
	fs.DurationVar(&o.Poll, "poll", time.Second, "monitoring poll interval")
	fs.Float64Var(&o.Budget, "budget", 0, "group power budget in watts (0 = no auto-balancing)")
	fs.StringVar(&o.Group, "group", "", "comma-separated node names the budget covers")
	fs.DurationVar(&o.Rebalance, "rebalance", 5*time.Second, "auto-balance interval")
	fs.DurationVar(&o.ConnectTO, "connect-timeout", ipmi.DefaultConnectTimeout, "BMC TCP connect timeout")
	fs.DurationVar(&o.RequestTO, "request-timeout", ipmi.DefaultRequestTimeout, "per-exchange BMC request timeout")
	fs.DurationVar(&o.RetryBase, "retry-base", dcm.DefaultRetryBaseDelay, "initial redial backoff for a failed node")
	fs.DurationVar(&o.RetryMax, "retry-max", dcm.DefaultRetryMaxDelay, "backoff ceiling for a failed node")
	fs.StringVar(&o.StateDir, "state-dir", "", "durable state directory: registry, caps and budget survive restarts")
	fs.DurationVar(&o.StaleAfter, "stale-after", dcm.DefaultStaleAfter, "age after which an unreachable node's demand stops counting in budgets")
	fs.StringVar(&o.Tiers, "tiers", "", "comma-separated NAME=high|low priority presets applied as nodes register")
	fs.IntVar(&o.BreakerFailures, "breaker-failures", 0, "consecutive failed exchanges that open a node's circuit breaker (0 = default, negative = breakers off)")
	fs.DurationVar(&o.SlowThreshold, "slow-threshold", 0, "exchange latency over which consecutive successful-but-slow polls open the breaker (0 = latency trip off)")
	fs.DurationVar(&o.BreakerOpen, "breaker-open", 0, "open-breaker hold before a single half-open probe (0 = the -retry-max ceiling)")
	fs.DurationVar(&o.HedgeDelay, "hedge-delay", 0, "hedge a cap push over a fresh connection when the shared path stalls this long (0 = no hedging)")
	fs.DurationVar(&o.PollBudget, "poll-budget", 0, "poll sweep duration that arms brownout shedding of low-value work when overrun (0 = no shedding)")
	fs.StringVar(&o.ReplicaAddr, "replica-addr", "", "address to serve the journal replication feed on (HA primary side)")
	fs.StringVar(&o.StandbyOf, "standby-of", "", "primary's replication address; run as hot standby and take over when its lease lapses")
	fs.StringVar(&o.Lease, "lease", "", "shared leadership lease file (default: <state-dir>/"+store.LeaseFileName+")")
	fs.StringVar(&o.HAID, "ha-id", "", "this member's name in the lease (default: the -listen address)")
	fs.DurationVar(&o.LeaseTTL, "lease-ttl", daemon.DefaultLeaseTTL, "leadership lease term; a primary that misses renewals this long is deposed")
	fs.IntVar(&o.Shards, "shards", 0, "run a sharded control plane: this many leaf managers own consistent-hash shards under a budget-cascading aggregator (0 = flat)")
	fs.DurationVar(&o.Aggregator, "aggregator", 0, "aggregator budget-cascade interval in sharded mode (0 = cascade only on dcmctl budget pushes; requires -budget)")
	if err := fs.Parse(args); err != nil {
		return daemon.Options{}, err
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	d, err := daemon.Start(opts, nil, nil)
	if err != nil {
		log.Fatalf("%v", err)
	}
	log.Printf("dcmd: control plane on %s, polling every %v", d.ControlAddr, opts.Poll)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	signal.Stop(sig)
	log.Printf("dcmd: %v: draining, compacting journal and releasing lease", s)
	d.Shutdown()
}

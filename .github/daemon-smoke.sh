#!/usr/bin/env bash
# daemon-smoke: bring dcmd up as a real process over loopback in each of
# its three shapes — flat, -shards 3, and an HA primary/standby pair —
# and drive every one through dcmctl. Tier-1 only ever calls start()
# in-process; this is the check that the one start path still comes up
# as a binary, serves, and exits 0 on SIGTERM in every shape, and that a
# sharded daemon restarted on its state dir lists its fleet again and
# leaves each leaf's dir with a parseable snapshot and no stray temps.
# Every wait is bounded; any failed assertion fails the script.
set -euo pipefail

BIN=$(mktemp -d)
STATE=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$BIN" "$STATE"' EXIT
go build -o "$BIN/" ./cmd/nodesimd ./cmd/dcmd ./cmd/dcmctl

N0=127.0.0.1:19623 N1=127.0.0.1:19624
CTL=127.0.0.1:19650 CTL2=127.0.0.1:19651
REPL=127.0.0.1:19660 REPL2=127.0.0.1:19661
FAST="-poll 200ms -connect-timeout 1s -request-timeout 2s -retry-base 100ms -retry-max 500ms"

ctl() { timeout 60 "$BIN/dcmctl" -server "$@"; }

# until CMD...: retry for up to 30 s.
until_ok() {
	for _ in $(seq 300); do
		if "$@" >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "daemon-smoke: timed out waiting for: $*" >&2
	return 1
}

# term PID: SIGTERM must drain the daemon to exit status 0 within 60 s.
term() {
	kill -TERM "$1"
	timeout 60 tail --pid="$1" -f /dev/null
	wait "$1"
}

# add_fleet ADDR registers both nodes; lists_fleet ADDR requires both
# rows in the listing; role_is ADDR ROLE matches the leader op.
add_fleet() {
	ctl "$1" add sim0 "$N0"
	ctl "$1" add sim1 "$N1"
}
lists_fleet() {
	local out
	out=$(ctl "$1" nodes)
	grep -q '^sim0 ' <<<"$out" && grep -q '^sim1 ' <<<"$out"
}
role_is() { ctl "$1" leader | grep -q "^role  : $2\$"; }

"$BIN/nodesimd" -listen "$N0" &
"$BIN/nodesimd" -listen "$N1" &

echo "== flat"
"$BIN/dcmd" -listen "$CTL" $FAST &
pid=$!
until_ok role_is "$CTL" solo
add_fleet "$CTL"
lists_fleet "$CTL"
test "$(ctl "$CTL" budget 300 sim0,sim1 | grep -c ' W$')" -eq 2
# A group naming a node twice would let it claim twice: refused as such.
if out=$(ctl "$CTL" budget 300 sim0,sim0,sim1 2>&1) || ! grep -q 'named twice' <<<"$out"; then
	echo "daemon-smoke: duplicate budget group not refused: $out" >&2
	exit 1
fi
term "$pid"

echo "== sharded"
# A NaN budget must fail start, not every aggregator pass: a non-zero
# exit, and not the timeout's.
status=0
timeout 10 "$BIN/dcmd" -listen "$CTL" -shards 2 -aggregator 1s -budget NaN 2>/dev/null || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
	echo "daemon-smoke: -budget NaN accepted (exit $status)" >&2
	exit 1
fi
"$BIN/dcmd" -listen "$CTL" -shards 3 -state-dir "$STATE/sharded" $FAST &
pid=$!
until_ok role_is "$CTL" aggregator
add_fleet "$CTL"
lists_fleet "$CTL"
grants=$(ctl "$CTL" budget 300 | grep '^leaf-0[0-2] .* W$')
test "$(wc -l <<<"$grants")" -eq 3
# The leaf grants conserve the datacenter budget.
awk '{s += $(NF-1)} END {exit !(s <= 300 + 1e-6)}' <<<"$grants"
test "$(ctl "$CTL" shards | grep -c '^leaf-0[0-2] *true ')" -eq 3
term "$pid"
test -s "$STATE/sharded/shardmap.snap"
# What a kill -9 mid-compaction strands; the restart must sweep it.
for leaf in "$STATE"/sharded/leaf-0[0-2]; do
	echo '{"nodes":{"half":' >"$leaf/snapshot-stale.tmp"
done

echo "== sharded, restarted on the same state dir"
"$BIN/dcmd" -listen "$CTL" -shards 3 -state-dir "$STATE/sharded" $FAST &
pid=$!
until_ok role_is "$CTL" aggregator
lists_fleet "$CTL"
term "$pid"
for leaf in "$STATE"/sharded/leaf-0[0-2]; do
	test -z "$(find "$leaf" -name '*.tmp')"
	jq -e .nodes "$leaf/snapshot.json" >/dev/null
done

echo "== HA pair"
"$BIN/dcmd" -listen "$CTL" -state-dir "$STATE/a" -replica-addr "$REPL" \
	-lease "$STATE/lease" -ha-id a -lease-ttl 1s $FAST &
primary=$!
until_ok role_is "$CTL" primary
add_fleet "$CTL"
test "$(ctl "$CTL" budget 300 sim0,sim1 | grep -c ' W$')" -eq 2
"$BIN/dcmd" -listen "$CTL2" -state-dir "$STATE/b" -standby-of "$REPL" -replica-addr "$REPL2" \
	-lease "$STATE/lease" -ha-id b -lease-ttl 1s $FAST &
standby=$!
until_ok role_is "$CTL2" standby
# The standby contends for the lease only once it has replicated.
until_ok test -s "$STATE/b/replica.json"
if ctl "$CTL2" setcap sim0 140 2>/dev/null; then
	echo "daemon-smoke: standby accepted a mutation" >&2
	exit 1
fi
term "$primary" # graceful: releases the lease
until_ok role_is "$CTL2" primary
until_ok lists_fleet "$CTL2"
ctl "$CTL2" setcap sim0 140
term "$standby"

echo "daemon-smoke: ok"

#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout — binary, Go build cache and temp files, so nothing is written
# outside the checkout — and runs it with the given flags. The build is
# incremental: after the first run it costs well under a second.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
cd "$root"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"

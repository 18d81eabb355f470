#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the driver's arguments. Everything the Go toolchain writes stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" "$@"

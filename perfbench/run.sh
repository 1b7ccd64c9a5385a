#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload suite|scale|serve --seed N --seconds S --trace 0|1
# Run from the repository root. Build outputs and the Go caches stay
# under .bench_build in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOTMPDIR="$out/tmp" GOPATH="$out/home/go" GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"

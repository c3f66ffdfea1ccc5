#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the repository root; BENCHMARK.json names this script as the
# benchmark's command. Everything the build writes — binary, Go build cache,
# the go command's own config and telemetry files — stays in .bench_build/
# inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
  export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
  export GOTOOLCHAIN=local GOPROXY=off
  cd "$root/bench" && go build -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"

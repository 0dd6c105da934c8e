#!/usr/bin/env bash
# Builds hepccld, hepcclgw and the benchmark driver from the source tree it is
# run in, then runs the driver with the given arguments. Run it from the
# repository root:
#
#   bash hepbench/run.sh --workload cta-rate --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/config"
# The go command's cache, temporary files, module path, and its config and
# telemetry files (under the user config directory) all stay in the build.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$build/bin/hepccld" ./cmd/hepccld
go build -o "$build/bin/hepcclgw" ./cmd/hepcclgw
(cd hepbench && go build -o "$build/bin/hepbench" .)
exec "$build/bin/hepbench" -bin "$build/bin" -work "$build" "$@"

#!/usr/bin/env bash
# Builds gossipq and the load generator from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash svcbench/run.sh --workload read-steady --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, the go
# command's own state, server logs and trace files all go under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With telemetry on (its default, "local"), every go command may start a
# detached sidecar process that outlives the build; mode "off" stops that.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/gossipq" ./cmd/gossipq
(cd svcbench && go build -o "$out/svcbench" .)
exec "$out/svcbench" -gossipq "$out/gossipq" -out "$out" "$@"

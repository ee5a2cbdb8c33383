#!/usr/bin/env bash
# Builds the benchmark (bench/dcnbench) and the dcnflow binary it serves
# from, both from the source tree in the current directory, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-k8 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1                  # all workloads
#   bash bench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Everything the build writes (binaries, Go build cache, Go's own config
# and telemetry files) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/bench" && go build -o "$out/bin/dcnbench" ./dcnbench)
go build -o "$out/bin/dcnflow" ./cmd/dcnflow

exec "$out/bin/dcnbench" -server-bin "$out/bin/dcnflow" "$@"

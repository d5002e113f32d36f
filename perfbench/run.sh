#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload wire-churn --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, telemetry) stays
# under .bench_build/ in the current directory. Exits non-zero without
# printing a result when the dynacrowd sources are not beside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/platform || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the dynacrowd repository root (go.mod and internal/ not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"

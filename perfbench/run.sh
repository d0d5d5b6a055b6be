#!/usr/bin/env bash
# Builds the benchmark and cmd/bnbserve from the checkout it is run in, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fresh-m7 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries and the traced run's spans.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bnbserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/bnbserve and perfbench/)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath" "$build/bin" "$build/spans"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/bnbserve" ./cmd/bnbserve

exec "$build/bin/perfbench" --bnbserve "$build/bin/bnbserve" --out "$build/spans" "$@"

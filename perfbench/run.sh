#!/usr/bin/env bash
# Builds the benchmark and blessd from this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload colocate --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and output stays inside the checkout: binaries
# and the Go build cache under .bench_build/, spans and profiles under
# .bench_out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/blessd" ]]; then
	echo "perfbench: $root is not a full checkout (go.mod or cmd/blessd missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build" "$root/.bench_out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export PPROF_TMPDIR="$root/.bench_out" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/perfbench"
go build -o "$build/perfbench" .
go build -o "$build/blessd" bless/cmd/blessd
cd "$root"
exec "$build/perfbench" -blessd "$build/blessd" -out "$root/.bench_out" "$@"

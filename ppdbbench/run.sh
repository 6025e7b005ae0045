#!/usr/bin/env bash
# Builds the server under test (cmd/ppdbserver) and the benchmark driver
# from the current checkout, then runs the driver with the given arguments.
# Run from the repository root:
#
#   bash ppdbbench/run.sh --workload provider-churn --seed 1 --seconds 10 --trace 0
#   bash ppdbbench/run.sh --selfcheck --runs 10 --seconds 10
#
# Everything it writes (binaries, Go build cache, run directories, traces)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ppdbserver" ] || [ ! -f "$root/ppdbbench/go.mod" ]; then
	echo "ppdbbench: run from the repository root (go.mod, cmd/ppdbserver and ppdbbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build/ppdbbench"
mkdir -p "$out/tmp"
# The Go toolchain keeps its caches and telemetry under the checkout, and
# never downloads: the module has no dependencies outside the repository.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/ppdbserver" ./cmd/ppdbserver
(cd "$root/ppdbbench" && go build -o "$out/ppdbbench" .)
exec "$out/ppdbbench" --root "$root" --server "$out/ppdbserver" "$@"

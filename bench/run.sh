#!/usr/bin/env bash
# Builds xtbench from this checkout and runs it with the given
# arguments. Run it from the root of an xtsim checkout:
#
#   bash bench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary itself) stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ] || [ ! -f experiments_output.txt ]; then
	echo "xtbench: run bench/run.sh from the root of an xtsim checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd bench && go build -o "$out/xtbench" ./xtbench) >&2
exec "$out/xtbench" "$@"

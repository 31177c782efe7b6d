#!/usr/bin/env sh
# Tier-1 gate: formatting, vet, build, and race-enabled tests for the whole
# module.
# Run from the repo root before sending a change. The experiment runner is
# concurrent (-jobs), so the race detector is part of the gate, not an
# optional extra. The full suite includes 10k-task simulations; pass
# -short for a quick local iteration loop:
#
#   ./scripts/check.sh          # full gate (what CI should run)
#   ./scripts/check.sh -short   # quick pass
set -eu
cd "$(dirname "$0")/.."

# Every tracked Go file must be gofmt-clean. Listing tracked files keeps
# the benchmark's module cache (.bench_build/) out of the walk.
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists files that need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
# The race detector slows the 10k-task simulations well past go test's
# default 10-minute per-package limit when packages run concurrently.
go test -race -timeout 30m "$@" ./...

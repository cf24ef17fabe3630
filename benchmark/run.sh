#!/usr/bin/env bash
# Builds the closed-loop benchmark from the source in this checkout and
# runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload list-contention --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and traced-run span files go under
# .bench_build/ in the current directory; nothing is written elsewhere.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/closedloop" .) >&2
exec "$out/closedloop" --trace-dir "$out/trace" "$@"

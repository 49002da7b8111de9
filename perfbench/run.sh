#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#   bash perfbench/run.sh --workload suite-flat --seed 1 --seconds 10 --trace 0
# Everything the build and the run write (Go build cache, temporary
# files, native artifacts, the benchmark binary) stays under
# .bench_build in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a regpromo checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user's config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=1

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

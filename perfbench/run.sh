#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload oneshot-road --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, temporaries, Go's
# own config) stays under .bench_build in the working directory, and the
# build uses only the local toolchain and no module downloads.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

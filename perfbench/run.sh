#!/usr/bin/env bash
# Builds the benchmark and nvramd from this checkout, then runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload repro|serve --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare -parent DIR -change DIR [-pairs 10] [-first-seed 1]
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout: the Go build cache, the binaries,
# scratch state and the result and span files.
set -euo pipefail

root=$(pwd)
if [ ! -f perfbench/go.mod ]; then
	echo "run.sh: run from the root of the checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
out=$out/perfbench
mkdir -p "$out/bin"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOTELEMETRY=off
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/nvramd" nvramfs/cmd/nvramd)

exec "$out/bin/perfbench" -nvramd "$out/bin/nvramd" -work "$out/work" -results "$out/results" "$@"

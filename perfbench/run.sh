#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#	bash perfbench/run.sh --workload serve-bow --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the checkout's
# build directory ($CARGO_TARGET_DIR when set, else .bench_build): the Go
# build cache and temporary files, the binary, scratch databases and traces.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root holds no program to build (go.mod and internal/ missing)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -work "$build" "$@"

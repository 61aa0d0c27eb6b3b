#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments (see perfbench/NOTES.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run leave behind stays in the checkout:
# the Go build cache and the binary under .bench_build/, scratch
# journals under .bench_tmp/, traced-run span files under .bench_out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
# The go command's temporary work directories stay in the checkout too.
export GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"
# The shipped PGO profile, when the checkout has one, is what `make bench`
# builds with; the fingerprint records its hash (or "off").
pgo=off
if [ -f "$root/default.pgo" ]; then pgo="$root/default.pgo"; fi
(cd "$here" && go build -pgo="$pgo" -o "$build/" . ./passchild) >&2
cd "$root"
exec "$build/perfbench" "$@"

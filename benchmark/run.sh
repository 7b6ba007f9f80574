#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload engine-suite --seed 1 --seconds 20 --trace 0
#
# Every file the toolchain and the benchmark write lands under .bench_build/
# in the checkout: the build cache, the binary, the sweep stores and the
# span files of traced runs. Without the simulator's sources next to this
# directory the build fails and the script exits non-zero before printing
# a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/benchmark" build -o "$out/bin/lowvcc-bench" .
exec "$out/bin/lowvcc-bench" -out "$out" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload route-perm --seed 1991 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary, Go's
# temporary files and the span files all stay under .bench_build/, so
# the run reads and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/config"

export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

go -C "${root}/bench" build -o "${out}/pramemu-bench" .
exec "${out}/pramemu-bench" "$@"

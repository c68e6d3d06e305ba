#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary and Go's build cache go under .bench_build/ in the checkout,
# so a run reads and writes nothing outside it. The build is repeated on
# every call; with a warm cache it is a no-op of a fraction of a second,
# and it is not part of setup_s, which the binary times itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/snipe-benchmark" .) >&2
cd "$root"
exec "$build/snipe-benchmark" "$@"

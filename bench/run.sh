#!/usr/bin/env bash
# Builds the benchmark harness (this directory, its own module) and the
# two product binaries it drives from source, then runs the harness from
# the repository root. Everything it writes stays inside the checkout:
# the Go build cache and the binaries under .bench_build/, results under
# bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
bin="$root/.bench_build/bin"
mkdir -p "$bin"
go build -o "$bin/" ./cmd/mpcserve ./cmd/mpcworker
(cd bench && go build -o "$bin/mpce2e" .)
exec "$bin/mpce2e" "$@"

#!/usr/bin/env bash
# Builds chainserve and the servebench load generator from this checkout
# and runs one benchmark run. Arguments are passed through:
#
#   bash servebench/run.sh --workload plan-miss --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the
# checkout root (Go build cache included).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/servebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root" && go build -o "$out/chainserve" ./cmd/chainserve)
(cd "$here" && go build -o "$out/servebench" .)
cd "$root"
exec "$out/servebench" -chainserve "$out/chainserve" -workdir "$out/run" "$@"

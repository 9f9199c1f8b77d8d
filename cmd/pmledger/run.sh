#!/usr/bin/env bash
# Builds pmledger from the checkout it is started in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/pmledger/run.sh --workload fig8-inline --seed 1 --seconds 20 --trace 0
#   bash cmd/pmledger/run.sh -compare a.json b.json
#
# Every build product, the Go build cache and Go's own temporary and
# configuration files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off

(cd "$root/cmd/pmledger" && go build -o "$build/pmledger" .)
exec "$build/pmledger" "$@"

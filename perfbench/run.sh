#!/usr/bin/env bash
# Builds the daemon under test and the load driver from the checkout
# in the current directory, then runs the driver with the given
# arguments:
#
#   bash perfbench/run.sh --workload small-distinct --seed 1 --seconds 10 --trace 0
#
# Every build artifact, including the Go build cache, stays under
# .bench_build/ in the checkout. The build is not part of any metric.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/xmlconsistd" ./cmd/xmlconsistd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/xmlconsistd" -root "$root" "$@"

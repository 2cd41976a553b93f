#!/usr/bin/env bash
# Builds fleetbench from this checkout's sources and runs it, passing
# every argument through:
#
#   bash fleetbench/run.sh --workload fleet-saturate --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, journals and span files.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 TMPDIR="$build/go-tmp"
(cd "$root/fleetbench" && go build -buildvcs=false -o "$build/fleetbench/fleetbench" .)
# The revision stamps results; a checkout without its own .git has none.
rev=unknown
if [ -e "$root/.git" ] && head=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	rev=$head
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		rev="$rev+modified"
	fi
fi
cd "$root"
exec "$build/fleetbench/fleetbench" -out "$build/fleetbench" -revision "$rev" "$@"

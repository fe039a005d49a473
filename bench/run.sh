#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write stays inside the checkout: the Go caches and the binary
# under .bench_build/, results and span files under bench/out/.
#
#   bash bench/run.sh --workload http_mnist_b1 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --selfcheck --runs 10
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
# Two CPUs, as on the box the bounds were measured on; set before the
# process starts so that package-level pools are sized by it too.
export GOMAXPROCS=2
if [ -e "$root/.git" ] && commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null)"; then
	export BENCH_COMMIT="$commit"
fi

(cd "$here" && go build -buildvcs=false -o "$build/bench" .)
cd "$root"
exec "$build/bench" -out "$here/out" "$@"

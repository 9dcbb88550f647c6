#!/usr/bin/env bash
# run.sh builds the end-to-end fleet benchmark from the sources of the
# checkout it sits in, then runs it with the given flags:
#
#	bash e2ebench/run.sh --workload warm-steady --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache included), so a fresh checkout pays
# one full build on its first run and a cache hit afterwards.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOTOOLCHAIN=local \
		GOFLAGS=-mod=mod GOPROXY=off GOCACHE="$out/gocache" \
		GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		go build -o "$out/e2ebench" .
)
cd "$root"
exec "$out/e2ebench" -dir "$out" "$@"

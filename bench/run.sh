#!/usr/bin/env bash
# Builds and runs facile's benchmark; see bench/README.md.
#
#   bash bench/run.sh [flags]                 run the benchmark
#   bash bench/run.sh compare A.json ... [-- B.json ...]
#
# The benchmark and facile-serve are built from the checkout this script
# lives in. The Go build cache, the Go tool's own files, temporary files and
# binaries stay under .bench_build/ at the checkout's root, and no module is
# fetched.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go -C "$bench" build -o "$out/bin/bench" .
if [ "${1:-}" = compare ]; then
	shift
	exec "$out/bin/bench" compare -root "$root" "$@"
fi
exec "$out/bin/bench" -root "$root" "$@"

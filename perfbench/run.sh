#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
# Run from the repository root. The build cache, the Go tool's home and
# config directories, the binary and temporary data directories all live
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/home/.config"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d "$root/.git" ] && command -v git >/dev/null; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export PERFBENCH_COMMIT
fi
exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (see README.md). Everything the build writes stays under
# .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
  TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"

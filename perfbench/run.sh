#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload serial-force --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# Chrome traces and the fleet's temporary files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"

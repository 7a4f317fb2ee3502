#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload hop-small --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the working directory (CARGO_TARGET_DIR names it when
# set, to match other benchmarks' conventions).
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/perfbench-results" "$@"

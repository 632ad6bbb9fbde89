#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload equi-local --seed 1 --seconds 60 --trace 0
#
# Run it from the repository root. The binary, the Go build cache,
# replica journals and span logs all go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing outside the checkout is written.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
mkdir -p "$out/perfbench"
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" -tmp "$out/tmp" -spans "$out/spans" "$@"

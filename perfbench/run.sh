#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload plan --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the compiler's temporary files stay
# inside the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

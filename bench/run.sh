#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through, e.g.:
#
#   bash bench/run.sh --workload tc-read-8b --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build and everything it caches go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout; the benchmark's own outputs go there too.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$root/bench" && go build -o "$out/ddio-bench" .)

exec "$out/ddio-bench" -tracedir "$out/trace" "$@"

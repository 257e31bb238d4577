#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# started in and runs it with the given arguments (see bench/README.md):
#
#   bash bench/run.sh --workload fleet-lines --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh compare parent/ change/
#
# Start it from the repository root. The binary and every Go cache live
# under $CARGO_TARGET_DIR (default .bench_build), so a run writes nothing
# outside the directory it was started in and never reaches the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$src" && go build -o "$out/wtpbench" .)
exec "$out/wtpbench" "$@"

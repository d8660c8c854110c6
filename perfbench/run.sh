#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload abilene-hist --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, module cache, binary) goes
# under $CARGO_TARGET_DIR, default .bench_build, relative to the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOTELEMETRY=off
bin="$out/perfbench"
(cd perfbench && go build -o "$bin.$$" .) >&2
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"

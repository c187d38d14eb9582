#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it there. Everything
# the build leaves behind - Go's build cache, its temporary files, the
# binary - and the traced run's spans go under .bench_build/ at the root
# of the checkout, so nothing outside it is written.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"

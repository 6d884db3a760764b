#!/usr/bin/env bash
# Builds the benchmark binary and replaces this shell with it: one process,
# no `go run` (its child outlives a kill of the parent), nothing left in
# the background. Build cache and outputs stay under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/stbenchmark" .)
exec "$out/stbenchmark" -dir "$here" "$@"

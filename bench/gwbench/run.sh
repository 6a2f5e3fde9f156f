#!/usr/bin/env bash
# Builds gwbench (its own module, next to this script) and runs it from
# the repository root; gwbench then builds cmd/fbsgw itself. A script
# and not `go run`, because the benchmark may read and write only inside
# its checkout: everything lands under <root>/.bench_build, the Go build
# cache included (Go's default is under $HOME) unless the caller already
# points GOCACHE elsewhere.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build/gwbench"
mkdir -p "$out"
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
# The driver's checkout is not a git repository; a checkout that is one
# but has no usable git would fail the build at VCS stamping.
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
# Never fetch a toolchain: build with the one installed or fail.
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/gwbench" .)
cd "$root"
exec "$out/gwbench" -root "$root" -out "$out" "$@"

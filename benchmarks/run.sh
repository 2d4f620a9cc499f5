#!/bin/sh
# run.sh builds hcbench into .bench_build/ at the root of the checkout and
# runs it with the given arguments. The Go build cache is kept in the same
# directory, so a run reads and writes nothing outside the checkout; the
# build is a no-op when the binary is current. Compile time is in no metric:
# set-up time is measured inside the binary.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
(cd "$here" && GOCACHE="$build/gocache" go build -o "$build/hcbench" ./hcbench)
exec "$build/hcbench" "$@"

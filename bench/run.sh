#!/bin/sh
# Builds the benchmark from source and runs it with the arguments given.
#
#   sh bench/run.sh --workload serve_tail --seed 3 --seconds 10 --trace 0
#       one run of one workload; the last line of output is the result
#       as one JSON object (the form BENCHMARK.json's command takes)
#   sh bench/run.sh
#       all six workloads, untraced and traced, as a table
#   sh bench/run.sh -repeat 2 -check
#       the full set twice; exits non-zero when the two sets differ by
#       more than the benchmark's own bounds or any exact count differs
#
# Everything the build and the run write stays inside the checkout:
# the binary and Go's build cache under .bench_build/, span files and
# scratch state under bench/out/.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"

if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: $root holds no go.mod: the benchmark builds against the repository it sits in" >&2
	exit 2
fi

mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local

cd "$here"
go build -o "$build/bench" .
exec "$build/bench" -out "$here/out" "$@"

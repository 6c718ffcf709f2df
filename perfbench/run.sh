#!/usr/bin/env bash
# Builds the benchmark and the serve daemon from source, then runs the
# benchmark with the given arguments, from the root of the checkout:
#   bash perfbench/run.sh --workload sync-d3 --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --self-test
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep the compiler's temporary files inside the checkout.
mkdir -p perfbench/_out/tmp
export TMPDIR="$PWD/perfbench/_out/tmp"
dune build --root . --cache=disabled --display=quiet \
  ./perfbench/bench.exe ./bin/serve_main.exe 1>&2
exec ./_build/default/perfbench/bench.exe \
  --server ./_build/default/bin/serve_main.exe "$@"

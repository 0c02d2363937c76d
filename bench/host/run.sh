#!/usr/bin/env bash
# Builds the simulator and the host benchmark from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash bench/host/run.sh --workload cold-run --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON summary.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/infs_run.ml ]; then
  echo "host_bench: run from the root of an infinity_stream checkout" \
    "(dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi

dune build --root . --cache=disabled ./bench/host/host_bench.exe ./bin/infs_run.exe >&2
exec ./_build/default/bench/host/host_bench.exe "$@"

#!/usr/bin/env bash
# Build the vmor benchmark from source and run it.  From the root of a
# vmor checkout:
#
#   bash vmorbench/run.sh --workload reduce --seed 1 --seconds 45 --trace 0
#
# --workload all runs the three workloads one after the other and fails
# if any of them fails.  Build output goes to stderr, so the benchmark's
# JSON result stays the last line of stdout.  The dune cache is off so
# the build reads and writes only inside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet ./vmorbench/main.exe 1>&2
exe=./_build/default/vmorbench/main.exe
if [ "${1:-}" = --workload ] && [ "${2:-}" = all ]; then
  shift 2
  status=0
  for workload in reduce rom-transient validate; do
    "$exe" --workload "$workload" "$@" || status=1
  done
  exit "$status"
fi
exec "$exe" "$@"

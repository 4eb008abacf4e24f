#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of standard output is the benchmark's JSON result.
set -euo pipefail
# keep every build artifact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/rdtsim.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --rdtsim ./_build/default/bin/rdtsim.exe "$@"

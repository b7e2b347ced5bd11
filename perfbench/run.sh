#!/bin/sh
# Build the benchmark and the benchgen CLI from source, then run it.
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh --self-check
#
# It first changes to the repository root.  Everything it writes stays
# inside the repository: dune's build directory (with dune's shared cache
# off) and a scratch directory under .perfbench/ that the benchmark
# removes on exit.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./perfbench/bench.exe ./bin/benchgen_cli.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"

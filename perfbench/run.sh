#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Everything it writes stays
# there: dune's _build/ and the harness's .perfbench/.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run this from the root of an entangle checkout" >&2
  exit 2
fi
mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp" DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
bench=./_build/default/perfbench/main.exe
# The harness runs on one core, the last one it may use. Its threads
# (the client's and, on serve-mixed, the in-process daemon's) take
# turns on one runtime lock, so a second core adds no parallelism,
# only hand-offs that wake another core, whose delay is the host's
# scheduling rather than the checker's work.
allowed=$(awk '/^Cpus_allowed_list:/ { print $2 }' /proc/self/status 2>/dev/null || true)
cpu=${allowed##*[-,]}
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "$bench" "$@"
fi
exec "$bench" "$@"

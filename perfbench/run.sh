#!/usr/bin/env bash
# Benchmark entry point. Builds the harness from the sources of the
# repository it sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last line of standard output is the result object (see README.md).
# Without the repository sources next to it, it exits 2 and prints no
# result.
set -euo pipefail
cd "$(dirname "$0")/.."
for f in dune-project lib/engine/dune lib/streams/trace.ml examples/triangle.query; do
  if [ ! -e "$f" ]; then
    echo "perfbench: $f not found; run from a checkout of the repository" >&2
    exit 2
  fi
done
# keep every build output inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
if ! dune build --root . ./perfbench/harness.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/harness.exe "$@"

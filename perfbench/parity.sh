#!/usr/bin/env bash
# Parity check: the harness drives the same library path as pstream_run.
# At a small scale, for each workload, the harness's output hashes must
# equal those printed by the pstream_run binary on the same input:
#
#   triangle_const         pstream_run --replay <the harness's saved trace>
#   triangle_deep_sharded  the sequential pstream_run on the same trace
#   star_shared            pstream_run --query star_rst --query star_rsu
#                          (its input is generated at seed 42)
#
# Usage: bash perfbench/parity.sh   (exit 0 when every hash agrees)
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/harness.exe ./bin/pstream_run.exe >&2
H=./_build/default/perfbench/harness.exe
R=./_build/default/bin/pstream_run.exe
tmp=$(mktemp -d perfbench_out.parity.XXXXXX)
trap 'rm -rf "$tmp"' EXIT
fail=0

compare() { # name harness-hash cli-hash
  if [ -n "$2" ] && [ "$2" = "$3" ]; then
    echo "parity ok   $1 $2"
  else
    echo "parity FAIL $1 harness=$2 pstream_run=$3"
    fail=1
  fi
}

# pstream_run exits 3 when its watchdog alarms; the hash still counts
cli() { "$R" "$@" || [ $? -eq 3 ]; }

h=$("$H" --hashes --workload triangle_const --seed 7 --rounds 300 \
  --save-trace "$tmp/const.trace" | awk '/^output hash/ {print $4}')
c=$(cli examples/triangle.query --replay "$tmp/const.trace" |
  awk '/^output hash:/ {print $3}')
compare triangle_const "$h" "$c"

h=$("$H" --hashes --workload triangle_deep_sharded --seed 7 --rounds 200 \
  --save-trace "$tmp/deep.trace" | awk '/^output hash/ {print $4}')
c=$(cli perfbench/queries/triangle_deep.query --replay "$tmp/deep.trace" |
  awk '/^output hash:/ {print $3}')
compare triangle_deep_sharded "$h" "$c"

"$H" --hashes --workload star_shared --seed 42 --rounds 100 >"$tmp/star.h"
cli --query examples/star_rst.query --query examples/star_rsu.query \
  --rounds 100 --fanin 2 --lag 5 >"$tmp/star.c"
for q in star_rst star_rsu; do
  h=$(awk -v q="$q" '$1 == "output" && $3 == q {print $4}' "$tmp/star.h")
  c=$(awk -v q="$q" '$1 == "query" && $2 == q":" && /output hash/ {print $NF}' "$tmp/star.c")
  compare "star_shared/$q" "$h" "$c"
done
exit "$fail"

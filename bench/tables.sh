#!/bin/sh
# Print every figure table of an `sbt bench/test` log (the "=== T-figN: … ==="
# title and its "|" rows), ordered by figure number, so that suite order does
# not matter. Compare two runs with
#   diff <(bench/tables.sh before.log) <(bench/tables.sh after.log)
set -eu
if [ $# -ne 1 ]; then
  echo "usage: $0 <sbt bench/test log>" >&2
  exit 2
fi
awk '
  { sub(/^\[info\] /, "") }
  /^=== T-fig[0-9]+/ { fig = substr($2, 6) + 0; print fig "\t" NR "\t" $0; next }
  fig && /^\|/ { print fig "\t" NR "\t" $0; next }
  { fig = 0 }
' "$1" | sort -t "$(printf '\t')" -k1,1n -k2,2n | cut -f3-

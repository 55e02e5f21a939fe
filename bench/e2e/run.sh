#!/usr/bin/env bash
# Builds the host-clock benchmark into bench/e2e/build/ and runs it, one
# process per workload run.
#
#   bash bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash bench/e2e/run.sh [--workloads a,b|all] [--reps R] [--traced]
#                         [--threads T] [--smoke] [--results DIR] ...
#
# Each run writes DIR/<workload>-s<seed>-r<rep>-<mode>.json (DIR defaults
# to bench/e2e/results; traced runs also write <...>-trace.json, a Chrome
# trace of the host spans). The last line of stdout is the last run's
# result JSON; build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
results="$here/results"

workloads=all
seed=1
seconds=20
trace=0
reps=1
extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload | --workloads) workloads="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --reps) reps="$2"; shift 2 ;;
    --results) results="$2"; shift 2 ;;
    --threads) extra+=(--threads "$2"); shift 2 ;;
    --smoke) extra+=(--smoke); shift ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done

{
  [ -f "$build/CMakeCache.txt" ] || cmake -S "$here" -B "$build"
  cmake --build "$build" -j 4 --target e2e_bench e2e_compare
} >&2

bench="$build/e2e_bench"
if [ "$workloads" = all ]; then
  workloads="$("$bench" --list | paste -sd, -)"
fi
mode=e2e
if [ "$trace" != 0 ]; then mode=traced; fi
mkdir -p "$results"
for w in ${workloads//,/ }; do
  for ((r = 1; r <= reps; r++)); do
    out="$results/$w-s$seed-r$r-$mode"
    args=(--workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
          --out "$out.json")
    if [ "$mode" = traced ]; then args+=(--trace-out "$out-trace.json"); fi
    "$bench" "${args[@]}" "${extra[@]}"
  done
done

#!/usr/bin/env bash
# The byte-identity matrix: bfs_tool over every distributed engine × wire
# format × 2D direction × fault plan, plus the 2D engines' triangular
# storage, at scale 11 on 64 cores, plain and with every observer
# attached. Each run writes, in its own directory under OUT_DIR, its
# stdout (the --json report included), its stderr, its exit status and
# its observer artifacts (trace, atlas, flight recorder; metrics ride in
# the --json report). Every simulated figure is virtual
# time, so two builds that should behave alike must produce identical
# trees:
#
#   bash bench/identity_matrix.sh OLD/build/examples/bfs_tool /tmp/old
#   bash bench/identity_matrix.sh NEW/build/examples/bfs_tool /tmp/new
#   diff -r /tmp/old /tmp/new        # empty: byte-identical
#
#   bash bench/identity_matrix.sh BFS_TOOL OUT_DIR [--slice]
#
# The full matrix is 460 runs (about 6 s on 4 cores); --slice runs a
# handful of its rows, as the identity_matrix_smoke ctest does. Four
# runs go at once. OUT_DIR is emptied first.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BFS_TOOL OUT_DIR [--slice]" >&2
  exit 2
fi
tool="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
out="$2"
shift 2
slice=0
case "$*" in
  "") ;;
  --slice) slice=1 ;;
  *) echo "identity_matrix: unknown option $*" >&2; exit 2 ;;
esac
[ -x "$tool" ] || { echo "identity_matrix: $tool is not executable" >&2; exit 2; }

declare -A plans=(
  [none]=""
  [kill-shrink]="--fault-plan kill:2@level2 --checkpoint-every 1 --recover-policy shrink"
  [kill-spare]="--fault-plan kill:2@level2 --checkpoint-every 1 --recover-policy spare"
  [flip-audit]="--fault-plan flip:1@level2:parents --checkpoint-every 1 --audit-every 1"
  [faults]="--fault-seed 42 --fail-rate 0.2 --corrupt-rate 0.3 --straggler 3:4.0 --degrade-nic 5:2.0"
)

# One line per run of one engine configuration under every fault plan,
# plain and observed: its name, then its bfs_tool arguments.
plan_rows() {
  local prefix="$1" base="$2" plan obs
  for plan in none kill-shrink kill-spare flip-audit faults; do
    for obs in plain observed; do
      local args="$base ${plans[$plan]}"
      if [ "$obs" = observed ]; then
        args+=" --metrics --trace-out trace.json"
        args+=" --atlas-out atlas.json --flight-out flight.json"
      fi
      # No trailing blank: xargs -L would join the next line on.
      echo "$prefix-$plan-$obs" $args
    done
  done
}

rows() {
  local algo wire dir wires dirs
  local base="--scale 11 --cores 64 --sources 2"
  for algo in 1d 1d-hybrid 2d 2d-hybrid graph500-ref pbgl; do
    case "$algo" in
      graph500-ref | pbgl) wires="raw" ;;  # the baselines run raw only
      *) wires="raw sieve bitmap varint auto" ;;
    esac
    case "$algo" in
      2d*) dirs="topdown bottomup hybrid" ;;
      *) dirs="topdown" ;;
    esac
    for wire in $wires; do
      for dir in $dirs; do
        plan_rows "$algo-$wire-$dir" \
          "--algo $algo $base --wire-format $wire --direction $dir --json"
      done
    done
  done
  # Triangular storage (the upper wedge, §7) on the 2D engines: top-down
  # only, as direction optimization needs the full matrix.
  for algo in 2d 2d-hybrid; do
    for wire in raw auto; do
      plan_rows "$algo-tri-$wire-topdown" "--algo $algo $base \
        --wire-format $wire --direction topdown --triangular --json"
    done
  done
}

select_rows() {
  if [ "$slice" = 1 ]; then
    grep -E '^(2d-auto-hybrid-(none|kill-shrink)-observed|2d-raw-topdown-faults-plain|1d-auto-topdown-flip-audit-observed|pbgl-raw-topdown-none-plain) '
  else
    cat
  fi
}

# Runs inside its own directory so that relative artifact paths (and a
# FLIGHT_ERROR.json written by a run that dies) stay apart and the bytes
# do not depend on OUT_DIR.
run_one() {
  local name="$1"
  shift
  mkdir -p "$out/$name"
  cd "$out/$name"
  local status=0
  "$tool" "$@" > stdout.txt 2> stderr.txt || status=$?
  echo "$status" > exit.txt
}
rm -rf "$out"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# Idle OpenMP threads of concurrent runs must not spin on shared cores.
export OMP_WAIT_POLICY="${OMP_WAIT_POLICY:-PASSIVE}"
export -f run_one
export tool out
count="$(rows | select_rows | wc -l)"
rows | select_rows | xargs -P 4 -L 1 bash -c 'run_one "$@"' _
echo "identity_matrix: $count runs under $out"

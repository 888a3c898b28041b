#!/usr/bin/env bash
# Compare the program output of two build trees.
#
# Runs the 8 examples in all 3 GAS modes, and every bench binary present
# in both builds, from each build with default arguments, then diffs
# their stdout and exit status. A bench present in only one build is
# listed, not compared.
# Simulated results are deterministic, so a refactor that claims "same
# program, written differently" must report no difference.
#
# Usage: tools/output_diff.sh PARENT_BUILD CHANGE_BUILD
#   e.g. tools/output_diff.sh ../parent/build build
# Each binary runs in a fresh scratch directory, so the BENCH_*.json
# files some benches write never land in the source tree.
# Exit status: 0 no difference, 1 some output differs, 2 usage error.
set -u

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

examples="quickstart gups heat2d actor_migration kvstore bfs sssp pipeline"
modes="pgas agas-sw agas-net"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run SIDE BUILD NAME BINARY [ARGS...]: stdout plus exit status of one run.
run() {
  local side=$1 build=$2 name=$3 bin=$4
  shift 4
  local cwd="$work/cwd/$side/$name"
  mkdir -p "$cwd" "$work/$side"
  if [ -x "$build/$bin" ]; then
    (cd "$cwd" && "$build/$bin" "$@" 2>/dev/null) > "$work/$side/$name"
    echo "exit status $?" >> "$work/$side/$name"
  else
    echo "missing binary $bin" > "$work/$side/$name"
  fi
}

benches=()
for path in "$parent"/bench/bench_*; do
  bench=$(basename "$path")
  if [ -x "$change/bench/$bench" ]; then
    benches+=("$bench")
  else
    echo "output_diff: $bench only in $parent, not compared"
  fi
done
for path in "$change"/bench/bench_*; do
  bench=$(basename "$path")
  [ -x "$parent/bench/$bench" ] || echo "output_diff: $bench only in $change, not compared"
done

names=()
for side in parent change; do
  build=$parent
  [ "$side" = change ] && build=$change
  names=()
  for ex in $examples; do
    for mode in $modes; do
      run "$side" "$build" "$ex.$mode" "examples/$ex" "--mode=$mode"
      names+=("$ex.$mode")
    done
  done
  for bench in "${benches[@]}"; do
    run "$side" "$build" "$bench" "bench/$bench"
    names+=("$bench")
  done
done

differ=0
for name in "${names[@]}"; do
  if ! diff -u --label "parent/$name" --label "change/$name" \
      "$work/parent/$name" "$work/change/$name"; then
    differ=$((differ + 1))
  fi
done

echo "output_diff: ${#names[@]} runs compared, $differ differ"
[ "$differ" -eq 0 ]

#!/usr/bin/env bash
# Coverage census: which lines of src/ does no program execute?
#
# Configures a separate `--coverage -O1` build, builds only the figure
# benches and the examples, runs every program at its quick knobs (no tests),
# and prints each src/ .cc line that none of them executed, then a per-file
# count. A line listed here is either dead for every shipped program or
# reached only by tests; ROADMAP.md records which of those are kept on
# purpose (input checks, safety guards, test references).
#
# Usage (from the repository root): scripts/coverage_census.sh [BUILD_DIR]
# BUILD_DIR defaults to build-coverage. Needs only bash, cmake and gcov; takes
# a few minutes. Not run in CI.
set -euo pipefail

BUILD=${1:-build-coverage}
ROOT=$(pwd)

BENCHES=(bench_table1_workloads bench_fig1_motivation bench_fig2_utilization
  bench_fig5_model_fit bench_fig6_model_accuracy bench_fig8_testbed
  bench_fig9_sensitivity_studies bench_fig10_simulation bench_fig11_controller
  bench_fig11_scale bench_fig12_overhead bench_fig13_failures bench_ablations
  bench_validation)
EXAMPLES=(quickstart colocate_lr_pr coexistence placement_advisor profiler_tool
  datacenter_sim sabasim)

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O1 --coverage -fprofile-update=atomic" \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage > /dev/null
cmake --build "$BUILD" -j "$(nproc)" --target "${BENCHES[@]}" "${EXAMPLES[@]}" > /dev/null
find "$BUILD" -name '*.gcda' -delete

# run <env...> <program> [args...]: one census program; stdout is discarded,
# and a failing program stops the census.
run() {
  echo "census: $*" >&2
  env SABA_JOBS=2 "$@" > /dev/null 2>&1
}

# The programs of scripts/check_repro.sh, at its knobs.
for b in bench_table1_workloads bench_fig1_motivation bench_fig2_utilization \
  bench_fig5_model_fit bench_fig13_failures bench_validation; do
  run "$BUILD/bench/$b"
done
run SABA_FIG13_JOBS=4 "$BUILD/bench/bench_fig13_failures"
run SABA_FIG10_INSTANCES=2 "$BUILD/bench/bench_fig10_simulation"
for shards in 1 8; do
  run SABA_SHARDS=$shards SABA_FIG11_SCALE=1 SABA_FIG11_SCALE_FLOWS=5000 \
    SABA_FIG11_SCALE_EVENTS=10 "$BUILD/bench/bench_fig11_scale"
done
for f in examples/scenarios/*.txt; do
  run "$BUILD/examples/sabasim" "$f"
done
for e in quickstart colocate_lr_pr coexistence placement_advisor profiler_tool datacenter_sim; do
  run "$BUILD/examples/$e"
done

# The other figures at EXPERIMENTS.md's quick knobs, and the ablations.
run "$BUILD/bench/bench_fig6_model_accuracy"
run SABA_SETUPS=4 "$BUILD/bench/bench_fig8_testbed"
run "$BUILD/bench/bench_fig9_sensitivity_studies"
run SABA_FIG11_INSTANCES=8 "$BUILD/bench/bench_fig11_controller"
run SABA_SCENARIOS=8 "$BUILD/bench/bench_fig12_overhead"
run SABA_SCENARIOS=8 SABA_SOLVE_CACHE=0 "$BUILD/bench/bench_fig12_overhead"
run "$BUILD/bench/bench_ablations"

# gcov prints every source an object touched; keep the unexecuted (#####)
# lines of src/ .cc files, as path:line: text.
report=$(mktemp)
trap 'rm -f "$report"' EXIT
find "$BUILD/src" -name '*.cc.gcda' | sort | while read -r gcda; do
  (cd "$(dirname "$gcda")" && gcov -t "$(basename "$gcda")" 2> /dev/null) |
    awk -v root="$ROOT/" '
      /^ *-: *0:Source:/ { src = substr($0, index($0, "Source:") + 7); sub(root, "", src); next }
      src ~ /^src\/.*\.cc$/ && $1 == "#####:" {
        rest = substr($0, index($0, "#####:") + 6)
        line = substr(rest, 1, index(rest, ":") - 1)
        gsub(/ /, "", line)
        print src ":" line ":" substr(rest, index(rest, ":") + 1)
      }'
done | sort -t: -k1,1 -k2,2n -u > "$report"

cat "$report"
echo
echo "Unexecuted lines per file:"
cut -d: -f1 "$report" | uniq -c | sort -k2
echo "total: $(wc -l < "$report") unexecuted line(s) in $(cut -d: -f1 "$report" | uniq | wc -l) file(s)"

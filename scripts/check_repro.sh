#!/usr/bin/env bash
# Determinism gate: the benches must produce byte-identical output for the
# same seed — run-to-run, across sweep worker counts (the SweepRunner
# contract, DESIGN.md §7 "Determinism & threading model"), across shard
# counts (§7.3) and with the solve cache on or off (§7.2) — and every example
# must run to completion. CI's build-test job runs this script as its
# determinism step.
# Run from the repository root after building.
set -euo pipefail

BUILD=${1:-build}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Static gate first: a tree that violates the determinism conventions
# (DESIGN.md §8 — stray randomness, wall-clock reads, raw getenv, unaudited
# unordered iteration) can pass the diffs below by luck on one machine and
# still diverge on another, so don't bother diffing until it lints clean.
cmake --build "$BUILD" --target saba_lint_check
echo "ok: saba_lint_check"

status=0

# same_stdout <label> <file-a> <file-b>: two captured stdouts must match.
same_stdout() {
  if diff -q "$2" "$3" > /dev/null; then
    echo "ok: $1"
  else
    echo "NON-DETERMINISTIC: $1"
    diff -u "$2" "$3" | head -n 40 || true
    status=1
  fi
}

# Fig 12 prints wall-clock timings (inherently run-to-run noisy), but its
# "state digest" lines fingerprint the programmed switch state and must be
# invariant across worker counts AND across the solve cache (DESIGN.md §7.2:
# the signature-keyed cache is an exactness-preserving memo, so cache-on and
# cache-off runs program bit-identical state).
SABA_SCENARIOS=4 SABA_JOBS=2 "$BUILD/bench/bench_fig12_overhead" 2>/dev/null \
  | grep '^state digest' > "$TMP/fig12.cached"
SABA_SCENARIOS=4 SABA_JOBS=1 SABA_SOLVE_CACHE=0 "$BUILD/bench/bench_fig12_overhead" 2>/dev/null \
  | grep '^state digest' > "$TMP/fig12.uncached"
same_stdout "bench_fig12_overhead (state digests, cache on/off x jobs 2/1)" \
  "$TMP/fig12.cached" "$TMP/fig12.uncached"

# The fast, fully deterministic benches: run to run and SABA_JOBS=1 vs 2.
BENCHES=(
  bench_table1_workloads
  bench_fig1_motivation
  bench_fig2_utilization
  bench_fig5_model_fit
  bench_fig13_failures
  bench_validation
)
for b in "${BENCHES[@]}"; do
  "$BUILD/bench/$b" > "$TMP/$b.1" 2>/dev/null
  "$BUILD/bench/$b" > "$TMP/$b.2" 2>/dev/null
  SABA_JOBS=1 "$BUILD/bench/$b" > "$TMP/$b.j1" 2>/dev/null
  SABA_JOBS=2 "$BUILD/bench/$b" > "$TMP/$b.j2" 2>/dev/null
  same_stdout "$b (run to run)" "$TMP/$b.1" "$TMP/$b.2"
  same_stdout "$b (SABA_JOBS=1 vs 2)" "$TMP/$b.j1" "$TMP/$b.j2"
done

# Heavy benches at quick knobs, across the knob that only schedules work.
SABA_JOBS=1 SABA_FIG10_INSTANCES=2 "$BUILD/bench/bench_fig10_simulation" \
  > "$TMP/fig10.j1" 2>/dev/null
SABA_JOBS=2 SABA_FIG10_INSTANCES=2 "$BUILD/bench/bench_fig10_simulation" \
  > "$TMP/fig10.j2" 2>/dev/null
same_stdout "bench_fig10_simulation (SABA_JOBS=1 vs 2)" "$TMP/fig10.j1" "$TMP/fig10.j2"

# Reroutes stream FlowRemoved/FlowAdded deltas into the allocation engine, so
# the failure sweep is where the sweep pool and epoch-based route
# invalidation meet.
SABA_JOBS=1 SABA_FIG13_JOBS=4 "$BUILD/bench/bench_fig13_failures" > "$TMP/fig13.j1" 2>/dev/null
SABA_JOBS=4 SABA_FIG13_JOBS=4 "$BUILD/bench/bench_fig13_failures" > "$TMP/fig13.j4" 2>/dev/null
same_stdout "bench_fig13_failures (SABA_FIG13_JOBS=4, SABA_JOBS=1 vs 4)" \
  "$TMP/fig13.j1" "$TMP/fig13.j4"

# The sharded flush (§7.3): the report, state digest included, must not
# depend on the shard count. The bench also cross-checks its swept universes
# and exits non-zero on any divergence.
FIG11S=(SABA_FIG11_SCALE=1 SABA_FIG11_SCALE_FLOWS=5000 SABA_FIG11_SCALE_EVENTS=10)
env "${FIG11S[@]}" SABA_SHARDS=1 "$BUILD/bench/bench_fig11_scale" > "$TMP/fig11s.s1" 2>/dev/null
env "${FIG11S[@]}" SABA_SHARDS=8 "$BUILD/bench/bench_fig11_scale" > "$TMP/fig11s.s8" 2>/dev/null
same_stdout "bench_fig11_scale (SABA_SHARDS=1 vs 8)" "$TMP/fig11s.s1" "$TMP/fig11s.s8"

# run_example <stdout-file> <example> [args...]: the example must exit 0
# within 120 s (each takes seconds at most), so a hang fails here by name
# instead of at CI's job time limit.
run_example() {
  local out=$1 code=0
  shift
  timeout 120 "$BUILD/examples/$1" "${@:2}" > "$out" 2>/dev/null || code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAILED: $* exited $code (124 = timed out after 120 s)"
    exit 1
  fi
}

# Every shipped scenario must parse, run to completion, and print the same
# report on a second run.
for f in examples/scenarios/*.txt; do
  run_example "$TMP/scenario.1" sabasim "$f"
  run_example "$TMP/scenario.2" sabasim "$f"
  same_stdout "sabasim $f (run to run)" "$TMP/scenario.1" "$TMP/scenario.2"
done

# The other examples, run to run. datacenter_sim prints the controller's
# wall-clock calculation time on stdout, so only its exit status is checked.
for e in quickstart colocate_lr_pr coexistence placement_advisor profiler_tool; do
  run_example "$TMP/$e.1" "$e"
  run_example "$TMP/$e.2" "$e"
  same_stdout "$e (run to run)" "$TMP/$e.1" "$TMP/$e.2"
done
run_example "$TMP/datacenter_sim" datacenter_sim
echo "ok: datacenter_sim (exit status)"
exit $status

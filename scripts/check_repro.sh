#!/usr/bin/env bash
# Determinism gate: the quick benches must produce byte-identical output for
# the same seed — run-to-run and across sweep worker counts (the SweepRunner
# contract, DESIGN.md §7 "Determinism & threading model").
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

# The fast, fully deterministic benches (heavy ones are covered by the seed
# printing in their banners).
BENCHES=(
  bench_table1_workloads
  bench_fig1_motivation
  bench_fig2_utilization
  bench_fig5_model_fit
  bench_fig13_failures
  bench_validation
)

status=0

# Fig 12 prints wall-clock timings (inherently run-to-run noisy), but its
# "state digest" lines fingerprint the programmed switch state and must be
# invariant across worker counts AND across the solve cache (DESIGN.md §7.2:
# the signature-keyed cache is an exactness-preserving memo, so cache-on and
# cache-off runs program bit-identical state).
SABA_SCENARIOS=4 SABA_JOBS=2 "$BUILD/bench/bench_fig12_overhead" \
  > "$TMP/fig12.cached" 2>/dev/null
SABA_SCENARIOS=4 SABA_JOBS=1 SABA_SOLVE_CACHE=0 "$BUILD/bench/bench_fig12_overhead" \
  > "$TMP/fig12.uncached" 2>/dev/null
if ! diff <(grep '^state digest' "$TMP/fig12.cached") \
          <(grep '^state digest' "$TMP/fig12.uncached") > /dev/null; then
  echo "NON-DETERMINISTIC: bench_fig12_overhead (solve cache changes switch state)"
  status=1
else
  echo "ok: bench_fig12_overhead (state digests, cache on/off x jobs 2/1)"
fi

for b in "${BENCHES[@]}"; do
  "$BUILD/bench/$b" > "$TMP/$b.1" 2>/dev/null
  "$BUILD/bench/$b" > "$TMP/$b.2" 2>/dev/null
  SABA_JOBS=1 "$BUILD/bench/$b" > "$TMP/$b.j1" 2>/dev/null
  SABA_JOBS=2 "$BUILD/bench/$b" > "$TMP/$b.j2" 2>/dev/null
  if ! diff -q "$TMP/$b.1" "$TMP/$b.2" > /dev/null; then
    echo "NON-DETERMINISTIC: $b (run to run)"
    status=1
  elif ! diff -q "$TMP/$b.j1" "$TMP/$b.j2" > /dev/null; then
    echo "NON-DETERMINISTIC: $b (SABA_JOBS=1 vs 2)"
    status=1
  else
    echo "ok: $b"
  fi
done
exit $status

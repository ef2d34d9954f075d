#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the simulator sources plus the perfbench program in
perfbench/src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build. The program's own result line carries each cell's
reference digest; this script compares those with perfbench/pins.json for
pinned seeds, counts every execution of a mismatching cell as failed, and
prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--update-pins records this run's digests as the pins for its seed instead.
Build and benchmark progress go to stderr.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
PINS = BENCH_DIR / "pins.json"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the perfbench program; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=True)
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    seed_key = str(args.seed)
    if args.update_pins:
        pins.setdefault(args.workload, {})[seed_key] = run["digests"]
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    failed = run["failed"]
    pinned = pins.get(args.workload, {}).get(seed_key)
    if pinned is not None:
        for cell in sorted(set(pinned) | set(run["digests"])):
            if pinned.get(cell) != run["digests"].get(cell):
                print(f"run.py: cell {cell} digest {run['digests'].get(cell)} "
                      f"differs from pin {pinned.get(cell)}", file=sys.stderr)
                failed += run["digest_runs"].get(cell, 1)
    else:
        print(f"run.py: seed {args.seed} has no pinned digests for {args.workload}; "
              "checked for self-consistency only", file=sys.stderr)

    names = expected_metrics(args.trace)
    if sorted(names) != sorted(run["metrics"]):
        missing = sorted(set(names) - set(run["metrics"]))
        extra = sorted(set(run["metrics"]) - set(names))
        sys.exit(f"run.py: metric set differs from BENCHMARK.json: missing {missing}, "
                 f"extra {extra}")

    result = {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": min(failed, run["attempted"]),
        "metrics": {name: run["metrics"][name] for name in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

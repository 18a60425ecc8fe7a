#!/usr/bin/env python3
"""Runs one workload of the acolay benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

Run from the root of an acolay checkout. The first run builds the program
(library and acolay_serve, Release) and the benchmark driver from source
into $CARGO_TARGET_DIR (default .bench_build) inside the checkout; later
runs rebuild only what changed. The driver's last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}. The exit
status is non-zero when the build fails, the checkout holds no acolay
sources, or any output checked wrong.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_mix", "solve_large", "relayer_edit")
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out: pathlib.Path) -> pathlib.Path | None:
    """Configures (once) and builds the driver; returns its path."""
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--parallel", "4",
                  "--target", "perfbench_driver"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return out / "perfbench_driver"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no acolay sources in {ROOT}", file=sys.stderr)
        return 2
    out = build_dir()
    driver = build(out)
    if driver is None:
        return 3
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(traces)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload fig11|scale-light|daemon --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

Run from the repository root. Each call configures and builds
perfbench/CMakeLists.txt (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; only the
first call compiles everything. The benchmark binary's output is passed
through: human-readable metric lines, then one JSON result line. Traced
runs also write their spans to <build dir>/spans/<workload>-<seed>.csv.
Exits non-zero when the build fails, the run fails or times out, or an
output check fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig11", "scale-light", "daemon")
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    """Configures and builds the benchmark; returns the binary."""
    out = build_dir()
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--parallel", "4",
              "--target", "gts_perfbench"]]
    for step in steps:
        # Build output goes to stderr so stdout carries only results.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return out / "gts_perfbench"


def run(binary: Path, args: list) -> tuple:
    """Runs the binary from the repository root; returns (code, stdout)."""
    result = subprocess.run([str(binary)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            timeout=RUN_TIMEOUT_S)
    return result.returncode, result.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    opts = parser.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    out = build_dir()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--size", opts.size,
            # Relative to the repository root: Unix socket paths are short.
            "--socket-dir", os.path.relpath(out, ROOT)]
    if opts.trace:
        (out / "spans").mkdir(exist_ok=True)
        args += ["--spans",
                 str(out / "spans" / f"{opts.workload}-{opts.seed}.csv")]
    try:
        code, stdout = run(binary, args)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if code != 0 or not result.get("correct"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one benchmark workload against the program built from this checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library, the expmk_serve daemon and the benchmark driver into .bench_build/
(CARGO_TARGET_DIR is honoured when set); later calls only let the build
check that it is up to date. The driver prints its report and, as its last
line, one JSON object with the end-to-end (--trace 0) or per-layer
(--trace 1) metrics. Spans of a traced run go to .bench_build/spans/.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_churn", "solve_large", "sweep_paper")


def build(root, build_dir):
    """Configures (once) and builds the driver; returns the build directory."""
    bench_src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        raise RuntimeError("the program's sources (CMakeLists.txt, src/) are missing")
    out = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True,
            stdout=sys.stderr,
        )
    subprocess.run(
        ["cmake", "--build", out, "-j", "4"], check=True, stdout=sys.stderr
    )
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    try:
        out = build(root, build_dir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [
        os.path.join(out, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(out, "expmk", "expmk_serve"),
    ]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    # The driver owns stdout, so its JSON line is the last line printed.
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

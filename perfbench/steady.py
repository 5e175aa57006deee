#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and prints, for each
end-to-end metric, the median, the quartiles and the spread against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                [--save FILE] [--against FILE]

Run from the root of a checkout. Each run is a fresh process with its own
seed (first-seed, first-seed + 1, ...). The spread is the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median; a metric is steady when its spread is within a third of its
bound and acceptable when within the bound. Every end-to-end metric is
checked, setup_s included.

--save writes the medians to FILE; --against compares this set's medians
with a set saved earlier and flags a metric whose median is worse than the
saved one by more than its bound (two sets of the same code must agree).
Exit code 1 when a run fails, a spread exceeds its bound or a median moved
beyond it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    cmd = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--save", help="write the medians to this file")
    parser.add_argument("--against", help="medians saved by an earlier set")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    medians = {}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            started = time.monotonic()
            result = run_once(bench["command"], workload, args.first_seed + i,
                              bench["run_seconds"])
            took = time.monotonic() - started
            if result is None:
                print(f"{workload}: run with seed {args.first_seed + i} failed")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"  seed {args.first_seed + i} ({took:.0f} s): " + " ".join(
                f"{name}={v[-1]:.6g}" for name, v in values.items()), flush=True)
        print(f"{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'moved':>7}  verdict")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            medians.setdefault(workload, {})[m["name"]] = med
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            # How much worse than the earlier set's median, as a share of it.
            moved = ""
            before = earlier.get(workload, {}).get(m["name"])
            if before:
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                moved = f"{worse:+.3f}"
                if worse > bound:
                    verdict += ", MOVED"
                    ok = False
            print(f"  {m['name']:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6.3f} {moved:>7}  {verdict}")
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

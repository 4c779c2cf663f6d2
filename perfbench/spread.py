#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the root of a checkout::

    python3 perfbench/spread.py --seeds 0-9
    python3 perfbench/spread.py --seeds 0-4 --workloads ensemble-k8s

Runs BENCHMARK.json's command with ``--trace 0`` in two sets of runs, once
per (seed, set, workload).  Every workload runs once for a seed before the
next seed starts, and the sets alternate within a seed, so host drift
spreads over all of them instead of landing on one.  Then it prints, per
workload and metric, each set's median and spread -- the distance between
the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them -- with the median
``host.calib_s`` beside them.  It flags a spread at or above a third of
the metric's bound and a second set's median worse than the first set's
by more than the bound, and exits 1 on any flag or failed run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HOST_PREFIX, ROOT, benchmark_spec

#: two sets of the same runs must agree within the bounds
SETS = 2


def parse_seeds(text: str) -> list[int]:
    """``0-9``, ``0,3,5`` or a mix of both, as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(command: list[str], workload: str, seed: int, seconds: int):
    """(result object, host diagnostics), or (``None``, why) for one run."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    host = {}
    for line in lines:
        if line.startswith(HOST_PREFIX):
            host = json.loads(line[len(HOST_PREFIX):])
    try:
        return json.loads(lines[-1]), host
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run-to-run spread of the benchmark's end-to-end metrics."
    )
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5 (default 0-9)")
    parser.add_argument("--workloads", help="comma-separated (default: every workload)")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    values: dict[tuple[str, int, str], list[float]] = {}
    flags = []
    for seed in parse_seeds(args.seeds):
        for run_set in range(SETS):
            for workload in workloads:
                result, host = run_once(spec["command"], workload, seed, spec["run_seconds"])
                if result is None:
                    flags.append(f"{workload} seed {seed}: no result ({host})")
                    continue
                if not result["correct"]:
                    flags.append(
                        f"{workload} seed {seed}: not correct, {result['failed']} of "
                        f"{result['attempted']} passes failed"
                    )
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                metrics.update(host)
                for name, value in metrics.items():
                    values.setdefault((workload, run_set, name), []).append(value)
                print(
                    f"set {run_set} seed {seed} {workload}: "
                    + ", ".join(f"{k} {v:.4f}" for k, v in metrics.items()),
                    file=sys.stderr, flush=True,
                )

    print(f"{'workload':17s} {'metric':13s}"
          + "".join(f" {'set ' + str(s) + ' median':>14s} {'spread':>7s}" for s in range(SETS))
          + "  bound")
    for workload in workloads:
        for name in [*bounds, "host.calib_s"]:
            bound = bounds.get(name)
            row = f"{workload:17s} {name:13s}"
            medians = []
            for run_set in range(SETS):
                vals = values.get((workload, run_set, name), [])
                if len(vals) < 2:
                    row += f" {'-':>14s} {'-':>7s}"
                    medians.append(None)
                    continue
                q1, _, q3 = statistics.quantiles(vals, n=4)
                median = statistics.median(vals)
                share = (q3 - q1) / median if median else 0.0
                medians.append(median)
                mark = " "
                if bound is not None and share >= bound / 3:
                    mark = "!"
                    flags.append(
                        f"{workload} {name}: set {run_set} spread {share:.3f} is at "
                        f"least a third of the bound {bound}"
                    )
                row += f" {median:14.4f} {share:6.3f}{mark}"
            first, second = medians
            if bound is not None and first and second is not None and second > first * (1 + bound):
                flags.append(
                    f"{workload} {name}: set 1 median {second:.4f} is worse "
                    f"than set 0's {first:.4f} by more than {bound}"
                )
            print(row + (f"  {bound}" if bound is not None else ""))
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())

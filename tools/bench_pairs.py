"""Paired benchmark runs of two checkouts, collected into one BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workloads solve,sandwich --seeds 1-10 --seconds 40 \
        --trace-seed 1 --out BENCH_label.json

For every workload and seed it runs ``perfbench/run.py --trace 0`` once in
each checkout, one run at a time, alternating which side goes first, and
keeps the final JSON line of each run, with the lines printed before it
under ``log``.  With ``--trace-seed`` it adds one ``--trace 1`` run per
side and workload.  The summary gives, per workload and end-to-end metric,
each side's median and quartiles and how many pairs the change won; a gain counts only when the change wins at least nine
tenths of the pairs and the medians differ by more than the distance
between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

BETTER = {"setup_s": "lower", "ops_per_s": "higher", "op_p50_ms": "lower", "peak_rss_mib": "lower"}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    *log, last = proc.stdout.strip().splitlines()
    return {**json.loads(last), "log": log}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: list[dict], workload: str) -> dict:
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["workload"] == workload:
            pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
    out = {}
    for metric, better in BETTER.items():
        parent = [p["parent"]["metrics"][metric]["value"] for p in pairs.values()]
        change = [p["change"]["metrics"][metric]["value"] for p in pairs.values()]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        out[metric] = {
            "better": better,
            "parent_q1_median_q3": qp,
            "change_q1_median_q3": qc,
            "change_over_parent": qc[1] / qp[1] if qp[1] else None,
            "change_wins": f"{wins}/{len(parent)}",
            "gain": wins >= 0.9 * len(parent) and sign * (qc[1] - qp[1]) > qp[2] - qp[0],
        }
    out["failed_over_attempted"] = {
        side: [p[side]["failed"] / p[side]["attempted"] for p in pairs.values()]
        for side in ("parent", "change")
    }
    out["correct"] = all(p[s]["correct"] for p in pairs.values() for s in ("parent", "change"))
    return out


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", default="solve,sandwich")
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads = args.workloads.split(",")
    runs, traced = [], []
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], workload, seed, args.seconds, 0)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": side == order[0], "result": result})
                print(workload, seed, side, result["metrics"]["ops_per_s"]["value"], flush=True)
        if args.trace_seed is not None:
            for side in ("parent", "change"):
                result = run_once(sides[side], workload, args.trace_seed, args.seconds, 1)
                traced.append({"workload": workload, "seed": args.trace_seed,
                               "side": side, "result": result})
    report = {
        "command": f"perfbench/run.py --seconds {args.seconds:g}",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "summary": {w: summarize(runs, w) for w in workloads},
        "runs": runs,
        "traced": traced,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Steadiness check: runs each workload once per seed and prints, for every
end-to-end metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median) against the metric's bound
in BENCHMARK.json, plus the share of failed operations in each run.

    python3 perfbench/steady.py [--workloads sandwich,solve,margin]
                                [--runs 10] [--first-seed 1] [--seconds S]

Run it from the root of a checkout.  ``--seconds`` defaults to the run
length in BENCHMARK.json.  Runs are made one after another, each in its own
process.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(done.stdout, file=sys.stderr)
                steady = False
            shares.append((result["failed"], result["attempted"]))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()
            ), flush=True)
        print(f"\n{workload}: failed/attempted per run: " + " ".join(f"{f}/{a}" for f, a in shares))
        same_share = len({Fraction(f, a) for f, a in shares}) == 1
        print(f"{workload}: failed share identical in every run: {same_share}")
        steady = steady and same_share
        print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]["bound"]
            if name == "setup_s":
                verdict = "spread not bounded (set-up time)"
            elif spread <= bound / 3:
                verdict = "steady (below a third of the bound)"
            elif spread <= bound:
                verdict = "within the bound"
            else:
                verdict = "TOO WIDE"
                steady = False
            print(f"{name:14s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f}  {verdict}")
        print()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

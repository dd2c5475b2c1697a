"""Work counts of the support exclusion search on round 0 of benchmark workloads.

    python3 tools/exclusion_counts.py [--src SRC] [--workloads solve,sandwich] [--seeds 1-10]

Run it from any directory.  tcpkit is imported from ``SRC``, by default
the ``src`` next to this file, and the workloads from the ``perfbench``
next to this file, so one copy of this script can count two checkouts.
It wraps ``tcpkit.tcp._rootless`` from outside the package, builds round 0
of each workload and seed, runs every operation of it, and prints one line
per workload with six counts over all seeds:

- ``groups``: calls of the search, one per support size per enumeration;
- ``supports``: supports those calls took;
- ``ruled_out``: supports shown rootless;
- ``left_early``: supports that left the search before the box cap, the
  third result of ``_rootless``;
- ``capped``: supports still open when the next level would pass the cap;
- ``boxes``: boxes spent over all supports.

Building a round runs the ``solve`` workload's fixed bases once; those
calls are counted too.  Two checkouts that do the same exclusion work print
the same lines.
"""

from __future__ import annotations

import os

# BLAS threads pinned to one before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = ("groups", "supports", "ruled_out", "left_early", "capped", "boxes")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def counting(rootless_rule, totals: dict):
    """``rootless_rule`` with its results added to ``totals``."""

    def spy(data, S, Q):
        rootless, cells, left = rootless_rule(data, S, Q)
        totals["groups"] += 1
        totals["supports"] += len(rootless)
        totals["ruled_out"] += int(rootless.sum())
        totals["left_early"] += int(left.sum())
        totals["capped"] += int(np.sum(~rootless & ~left & (cells > 0)))
        totals["boxes"] += int(cells.sum())
        return rootless, cells, left

    return spy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the tcpkit package to count")
    parser.add_argument("--workloads", default="solve,sandwich", help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="seed range, as 1-10 or 3")
    args = parser.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    tcp = importlib.import_module("tcpkit.tcp")
    workloads = importlib.import_module("workloads")
    warnings.filterwarnings("ignore", message="enumeration found no solution")
    rootless_rule = tcp._rootless
    for name in args.workloads.split(","):
        totals = dict.fromkeys(COUNTS, 0)
        tcp._rootless = counting(rootless_rule, totals)
        for seed in seed_range(args.seeds):
            for op in workloads.WORKLOADS[name](seed, 0):
                try:
                    op.run()
                except Exception:  # a raising operation still did its exclusion work
                    pass
        print(name, " ".join(f"{k}={v}" for k, v in totals.items()), flush=True)


if __name__ == "__main__":
    main()

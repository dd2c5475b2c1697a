"""tcpkit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {sandwich,solve,margin,all} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; tcpkit is imported from ./src.  One
process runs one workload on one thread, with the default RunConfig.  With
``--trace 0`` it times whole rounds of operations until the operations have
taken ``--seconds`` and prints the end-to-end metrics; with ``--trace 1`` it
alternates an untraced and a traced pass over the first round until
``--seconds`` have passed and prints the per-layer metrics.  Times are CPU
time of the one benchmark thread (``time.process_time``): on an idle host
that is the wall time, and on a shared one it is not inflated when the host
deschedules the process.  Every output is checked by ``checker.py``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the three workloads, each in its own process, and
prints a table.
"""

import os

# BLAS threads pinned to one before numpy is imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
WORKLOAD_NAMES = ("sandwich", "solve", "margin")
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.process_time(); "
    "import tcpkit; print(time.process_time() - t)"
)
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}
P90_MIN_OPS = 100
# A run starts no round that would end after this many times --seconds of
# wall time, judged by the last round, so a busy host cannot stretch it
# past the 180 s a run may take.
WALL_LIMIT_FACTOR = 3.0
CLOCK = time.process_time


class Tally:
    """Attempted and failed operations, failures grouped by fault; a failure
    that is not one of the ``known`` program faults is a wrong output."""

    def __init__(self, known, note: str):
        self.known = known
        self.note = note
        self.attempted = 0
        self.faults: Counter = Counter()
        self.notes: Counter = Counter()
        self.wrong: list[str] = []

    def record(self, label: str, verdict) -> None:
        self.attempted += 1
        if verdict is None:
            return
        fault, detail = verdict
        if fault == self.note:
            self.notes[f"{label}: {detail}"] += 1
            return
        self.faults[fault] += 1
        if fault not in self.known and len(self.wrong) < 5:
            self.wrong.append(f"{label}: {detail}")

    @property
    def failed(self) -> int:
        return sum(self.faults.values())


def run_round(ops, tally: Tally, durations: list) -> float:
    """Run and check every operation; returns the round's CPU time."""
    total = 0.0
    for op in ops:
        start = CLOCK()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is judged by its check
            out = exc
        took = CLOCK() - start
        total += took
        durations.append(took)
        tally.record(op.label, op.check(out))
    return total


def median_import_seconds() -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def percentile(values: list, p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def untraced(build, seed: int, seconds: float, ops0, tally: Tally) -> dict:
    durations: list = []
    ops, r = ops0, 0
    wall_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round(ops, tally, durations)
        r += 1
        if sum(durations) >= seconds:
            break
        now = time.perf_counter()
        if (now - wall_start) + (now - round_start) > WALL_LIMIT_FACTOR * seconds:
            print("stopped early: the host is too busy to reach --seconds of CPU time")
            break
        ops = build(seed, r)
    timed = sum(durations)
    print(f"rounds={r} ops={len(durations)} timed_s={timed:.3f}")
    if len(durations) >= P90_MIN_OPS:
        print(f"op_p90_ms={1e3 * percentile(durations, 0.9):.3f} (over {len(durations)} ops)")
    else:
        print(f"op_p90_ms not kept: {len(durations)} ops, fewer than {P90_MIN_OPS}")
    return {
        "ops_per_s": tally.attempted / timed,
        "op_p50_ms": 1e3 * statistics.median(durations),
    }


def traced(ops0, seconds: float, tally: Tally, workload: str, seed: int) -> tuple[dict, bool]:
    """Alternate untraced and traced passes over the first round."""
    start = CLOCK()
    wall_start = time.perf_counter()
    plain, with_trace, self_times = [], [], []
    first = None
    absent: list = []
    repeat_ok = True
    pair_wall = 0.0
    while first is None or (
        CLOCK() - start < seconds
        and time.perf_counter() - wall_start + pair_wall < WALL_LIMIT_FACTOR * seconds
    ):
        pair_start = time.perf_counter()
        plain.append(run_round(ops0, tally, []))
        tracer = tracing.Tracer(keep_spans=first is None)
        with tracing.Installed(tracer) as installed:
            with_trace.append(run_round(ops0, tally, []))
        metrics = tracing.layer_metrics(tracer, installed.absent)
        counts = {k: v for k, v in metrics.items() if not k.endswith("_s")}
        if first is None:
            first, first_counts, absent = tracer, counts, installed.absent
        elif counts != first_counts:
            repeat_ok = False
        self_times.append({k: v for k, v in metrics.items() if k.endswith("_s")})
        pair_wall = time.perf_counter() - pair_start
    correct = recertify(first.observed)
    out = tracing.layer_metrics(first, absent)
    for key in self_times[0]:
        out[key] = statistics.median(st[key] for st in self_times)
    out["trace.spans"] = first.spans
    out["trace.untraced_pass_s"] = statistics.median(plain)
    out["trace.traced_pass_s"] = statistics.median(with_trace)
    out["trace.overhead_s"] = out["trace.traced_pass_s"] - out["trace.untraced_pass_s"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    first.save(os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.npz"))
    print(f"traced passes={len(with_trace)} counts_repeat_exactly={repeat_ok}")
    if absent:
        print("absent (function no longer in tcpkit): " + ", ".join(absent))
    return out, correct


def recertify(observed) -> bool:
    """Re-certify the solutions solved inside verify_bounds."""
    ok = True
    for func, inst, result in observed:
        for sol in result if isinstance(result, list) else [result]:
            why = checker.certify(inst.A.data, inst.q, sol.x)
            if why:
                print(f"re-certification failed in {func}: {why}")
                ok = False
    if observed:
        print(f"re-certified the solutions of {len(observed)} solver calls inside verify_bounds: ok={ok}")
    return ok


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "tcpkit", "__init__.py")):
        print("no tcpkit sources at ./src/tcpkit; run from the root of a tcpkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import_s = median_import_seconds()
    import workloads

    warnings.filterwarnings("ignore", message="enumeration found no solution")
    build = workloads.WORKLOADS[args.workload]
    build_times = []
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        ops0 = build(args.seed, 0)
        build_times.append(CLOCK() - t0)
    setup_s = import_s + statistics.median(build_times)

    tally = Tally(workloads.FAULTS, workloads.NOTE)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        values, correct = traced(ops0, args.seconds, tally, args.workload, args.seed)
        units = dict(tracing.LAYER_METRICS + tracing.TRACE_METRICS)
    else:
        values = untraced(build, args.seed, args.seconds, ops0, tally)
        values["setup_s"] = setup_s
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units, correct = END_TO_END_UNITS, True
    correct = correct and not tally.wrong
    for fault, n in sorted(tally.faults.items()):
        about = workloads.FAULTS.get(fault, "output failed the checker")
        print(f"failed ops: {n} x {fault}: {about}")
    for note, n in sorted(tally.notes.items()):
        print(f"note ({n} x, not a failure): {note}")
    for line in tally.wrong:
        print(f"wrong output: {line}")
    for name in units:
        if name in values:
            print(f"{name} = {values[name]:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        rows.append((name, json.loads(lines[-1])))
    print()
    for name, res in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Seeded outputs of one checkout (CLI, library probes, exclusion counts), written for diffing.

    python3 tools/golden_outputs.py --out DIR [--src SRC]

Run it from any directory.  tcpkit is imported from ``SRC``, by default
the ``src`` next to this file, and the input draws of ``perfbench``'s
workloads from the ``perfbench`` next to this file, so one copy of this
script gives two checkouts the same inputs.  It writes three things.

First the CLI outputs: the inputs it makes, then one file per command with
its standard output, plus standard error and the exit code when the
command fails, from the CLI run in-process.  The commands are
``classify``, ``beta`` and ``norms`` on a fixed list of m2-4, n2-6
tensors; every ``eigen`` kind on m3/m4 n3/n4 and m4 n5 tensors, and
``h_plus`` and ``pareto_h`` on m3 n5 ones; ``solve`` by both methods at
m3/m4, n3-n6; and ``verify-bounds`` (with its full report) for every
family at m3/m4, n3/n4 (order 2 for ``matrix_m2``), with the ``--csv``
file for ``random_symmetric_copositive``.  At m3 n3 and m4 n4,
``classify``, ``beta``, ``norms``, the ``h_plus``, ``pareto_h`` and
``delta_h_plus`` eigen kinds and ``solve`` also run with ``--format csv``
and ``--format text``.  Then come the ``h_plus``, ``pareto_h`` and
``pareto_z`` eigen kinds at order 2, on shifted and symmetric n3/n5
matrices and on ``diag(1, 1, 2)`` and the 3x3 identity, whose repeated
eigenvalues take the multi-column vertex rule, and ``verify-bounds`` on
symmetric matrices: ``matrix_m2 --symmetric`` at n3/n4 and
``random_symmetric_copositive`` at order 2, n3.  After them, ``solve``
runs by both methods on two nonnegative symmetric instances, m3 n5 and m4
n6 (``NONNEG_SOLVES``), drawn by ``perfbench/workloads.py``'s
``nonneg_symmetric``; on both, the first start of ``--method iterative``
does not certify.  Then ``solve`` runs by both methods on the four scaled
copies of ``perfbench``'s ``solve`` workload (``SCALED_SOLVES``): its two
fixed ``diag_dominant`` bases, m3 n3 and m4 n3, with ``q`` times 1e6 and
times 1e-9.  Last, ``classify`` and ``beta`` run at n7
(``MULTISTART_SHAPES``), where the default grid is off and the sphere
search is multistart only.

Then the library probes, one JSON line per input that names it (family,
m, n, seed) and holds the library's results on it, or the error a call
raised, and the warnings it gave:

- ``probe_tcp.jsonl``, 378 TCP instances: ``solve_enumeration`` and
  ``solve_iterative`` on 18 seeds (0-17) of 21 shapes.  ``diag_dominant``
  tensors (``perfbench``'s, with margin 0.5) run at m2 n2-6 and m3/m4
  n3-6, and ``nonneg_symmetric`` ones (``nonneg`` below, then
  ``tcpkit.symmetrize``) at m3/m4 n3-6.  Each instance is drawn from
  ``default_rng([s, m, n, 99])``: the tensor, then ``q ~ uniform(-2, 1)``.
- ``probe_pareto.jsonl``, 612 tensors: ``pareto_h_eigenvalues`` and, at
  even order, ``pareto_z_eigenvalues`` at m3 n2-6 and m4 n2-5.  For each
  seed 0-15, one ``default_rng([s, m, n, 4242])`` draws one tensor of each
  of ``PARETO_KINDS`` in turn.  Seeds 0-3 of
  ``generate(GeneratorSpec("random_symmetric_copositive", m, n, seed))``
  follow.  Every input passes through ``tcpkit.symmetrize``.

Last, ``exclusion_counts.json``: the work of the support exclusion search
``tcp._rootless``, over every operation of round 0 of the ``solve``
workload at seeds 1-10, including the calls that build the round's fixed
bases.  ``groups`` counts its calls (one per support size per
enumeration), ``supports`` the supports they took, ``ruled_out`` those
shown rootless, ``left_early`` those that left the search before the box
cap (its third result), ``capped`` those still open at the cap, and
``boxes`` the boxes spent.  The counting wrapper and a filter for the
"enumeration found no solution" warning are installed around this loop
only.  A package whose ``_rootless`` is missing, or is not
``_rootless(data, S, Q) -> (rootless, cells, left)``, gets an ``error``
entry instead.

Every input is drawn from a fixed seed, so two checkouts whose outputs
agree give directories that ``diff -r`` finds equal.
"""

from __future__ import annotations

import os

# BLAS threads pinned to one before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SHAPES = [(2, 2), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (4, 3), (4, 4), (4, 5), (4, 6)]
# the eigen kinds run at each shape that ``solve`` runs at, ``None`` for
# every kind; n5/n6 give large groups of supports of one size
SOLVE_SHAPES = {
    (3, 3): None, (3, 4): None,
    (4, 3): None, (4, 4): None,
    (3, 5): ("h_plus", "pareto_h"), (3, 6): (), (4, 5): None, (4, 6): (),
}
BOUND_SHAPES = [(3, 3), (3, 4), (4, 3), (4, 4)]
BOUND_COUNT = 2
CSV_FAMILY = "random_symmetric_copositive"
# the shapes and eigen kinds whose csv and text renderings are written too
FORMAT_SHAPES = [(3, 3), (4, 4)]
FORMAT_EIGEN_KINDS = ("h_plus", "pareto_h", "delta_h_plus")
# order-2 eigen runs: generic matrices have one-dimensional eigenspaces (the
# closed-form positive eigenvector), the diagonal ones repeated eigenvalues
# (the k-row vertex rule of ``eigen._positive_eigvec``)
MATRIX_DIAGONALS = {"m2n3_diag112": [1.0, 1.0, 2.0], "m2n3_identity": [1.0, 1.0, 1.0]}
MATRIX_EIGEN_INPUTS = ("m2n3_shifted", "m2n3_symmetric", "m2n5_shifted", "m2n5_symmetric",
                       *MATRIX_DIAGONALS)
MATRIX_EIGEN_KINDS = ("h_plus", "pareto_h", "pareto_z")
# (family, n, --symmetric) of the order-2 verify-bounds runs on symmetric
# matrices, the only ones where ``matrix_two_symmetric`` applies
SYMMETRIC_MATRIX_BOUNDS = [("matrix_m2", 3, True), ("matrix_m2", 4, True),
                           ("random_symmetric_copositive", 3, False)]

# (m, n, s) of the nonnegative symmetric instances drawn from default_rng([s, m, n, 11])
NONNEG_SOLVES = [(3, 5, 3), (4, 6, 10)]
# (m, n, s) of the diagonally dominant bases drawn from default_rng([s, m, n, 99]),
# and the factors their q is scaled by
SCALED_SOLVES = [(3, 3, 9), (4, 3, 3)]
SCALES = {"1e6": 1e6, "1e-9": 1e-9}
# (m, kind) of the n7 tensors drawn from default_rng([m, 7, 20151])
MULTISTART_SHAPES = [(2, "mixed"), (3, "shifted")]

TCP_SHAPES = {
    "diag_dominant": [(2, n) for n in range(2, 7)] + [(m, n) for m in (3, 4) for n in range(3, 7)],
    "nonneg_symmetric": [(m, n) for m in (3, 4) for n in range(3, 7)],
}
TCP_SEEDS = range(18)
PARETO_SHAPES = [(3, n) for n in range(2, 7)] + [(4, n) for n in range(2, 6)]
PARETO_SEEDS = range(16)
# each Pareto probe label and the ``draw_data`` kind it draws
PARETO_KINDS = {"mixed": "mixed", "nonneg": "nonneg", "zero_diagonal": "zero_diagonal", "shifted": "raised"}
COPOSITIVE_SEEDS = range(4)
COUNT_SEEDS = range(1, 11)
COUNTS = ("groups", "supports", "ruled_out", "left_early", "capped", "boxes")


def entries(data: np.ndarray, symmetric: bool) -> list[dict]:
    """Sparse 1-based entries; a symmetric tensor lists each sorted cell once."""
    n = data.shape[0]
    out = []
    for cell in itertools.product(range(n), repeat=data.ndim):
        if symmetric and list(cell) != sorted(cell):
            continue
        if data[cell] != 0.0:
            out.append({"idx": [i + 1 for i in cell], "v": float(data[cell])})
    return out


def draw_data(rng: np.random.Generator, m: int, n: int, kind: str) -> np.ndarray:
    """One tensor's entries.  ``mixed`` is uniform(-1, 1); ``shifted`` sets
    each diagonal entry of those to its row's absolute sum plus 0.5, and
    ``raised`` adds uniform(0, 2) to it; ``symmetric`` takes their absolute
    values, each cell that of its sorted cell, and adds 0.5 to the diagonal.
    ``nonneg`` is uniform(0, 1) with the diagonal raised by 0.5 +
    uniform(0, 1), and ``zero_diagonal`` uniform(0, 1) with a zero diagonal."""
    diag = tuple([np.arange(n)] * m)
    if kind in ("nonneg", "zero_diagonal"):
        data = rng.uniform(0.0, 1.0, size=(n,) * m)
        data[diag] = 0.0 if kind == "zero_diagonal" else data[diag] + 0.5 + rng.uniform(0.0, 1.0, size=n)
        return data
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    if kind == "symmetric":
        data = np.abs(data)
        for cell in itertools.product(range(n), repeat=m):
            data[cell] = data[tuple(sorted(cell))]
        data[diag] += 0.5
    elif kind == "shifted":
        data[diag] = np.abs(data).reshape(n, -1).sum(axis=1) + 0.5
    elif kind == "raised":
        data[diag] += rng.uniform(0.0, 2.0, size=n)
    return data


def draw(rng: np.random.Generator, m: int, n: int, kind: str) -> dict:
    """The tensor object of ``draw_data(rng, m, n, kind)``."""
    return {"m": m, "n": n, "symmetric": kind == "symmetric",
            "entries": entries(draw_data(rng, m, n, kind), kind == "symmetric")}


def instance(data: np.ndarray, rng: np.random.Generator, t: float = 1.0) -> dict:
    """An instance object: the tensor ``data``, every cell written so that
    its values are kept bit for bit, then ``q ~ uniform(-2, 1)`` from
    ``rng``, times ``t``."""
    q = rng.uniform(-2.0, 1.0, size=data.shape[0]) * t
    return {"tensor": {"m": data.ndim, "n": data.shape[0], "symmetric": False, "entries": entries(data, False)},
            "q": [float(v) for v in q]}


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def bounds_command(family: str, m: int, n: int, symmetric: bool = False) -> tuple[str, list[str]]:
    """A seeded ``verify-bounds`` run that writes its report (and, for
    ``CSV_FAMILY``, its csv file) next to its output."""
    name = f"bounds_{family}{'_symmetric' if symmetric else ''}_m{m}n{n}"
    return (name, ["verify-bounds", "--family", family, "--m", str(m), "--n", str(n),
                   "--count", str(BOUND_COUNT), "--seed", "7",
                   "--report", f"{name}.report.jsonl", "--violation-out", f"{name}.violation.json"]
            + (["--symmetric"] if symmetric else [])
            + (["--csv", f"{name}.csv"] if family == CSV_FAMILY else []))


def commands(families: tuple[str, ...], eigen_kinds: tuple[str, ...], workloads) -> list[tuple[str, list[str]]]:
    """(output name, CLI argv) pairs for a package with these generator
    families and eigen kinds; writes the input files they read, drawing the
    instances of benchmark inputs with ``perfbench``'s ``workloads``."""
    rng = np.random.default_rng(20151)
    out = []
    for m, n in SHAPES:
        for kind in ("mixed", "shifted", "symmetric"):
            name = f"m{m}n{n}_{kind}"
            write_json(f"{name}.tensor.json", draw(rng, m, n, kind))
            for cmd in ("classify", "beta", "norms"):
                out.append((f"{cmd}_{name}", [cmd, f"{name}.tensor.json"]))
    for (m, n), kinds in SOLVE_SHAPES.items():
        for kind in ("shifted", "symmetric"):
            name = f"m{m}n{n}_{kind}"
            for eig in eigen_kinds if kinds is None else kinds:
                out.append((f"eigen_{eig}_{name}", ["eigen", f"{name}.tensor.json", "--kind", eig]))
            q = np.round(rng.uniform(-2.0, 1.0, size=n), 6)
            with open(f"{name}.tensor.json", encoding="utf-8") as fh:
                tensor = json.load(fh)
            write_json(f"{name}.instance.json", {"tensor": tensor, "q": [float(v) for v in q]})
            for method in ("enumeration", "iterative"):
                out.append((f"solve_{method}_{name}",
                            ["solve", f"{name}.instance.json", "--method", method]))
    for family in families:
        shapes = [(2, 3), (2, 4)] if family == "matrix_m2" else BOUND_SHAPES
        for m, n in shapes:
            out.append(bounds_command(family, m, n))
    for m, n in FORMAT_SHAPES:
        for fmt in ("csv", "text"):
            for kind in ("mixed", "shifted", "symmetric"):
                name = f"m{m}n{n}_{kind}"
                for cmd in ("classify", "beta", "norms"):
                    out.append((f"{cmd}_{name}.{fmt}", [cmd, f"{name}.tensor.json", "--format", fmt]))
            for kind in ("shifted", "symmetric"):
                name = f"m{m}n{n}_{kind}"
                for eig in FORMAT_EIGEN_KINDS:
                    out.append((f"eigen_{eig}_{name}.{fmt}",
                                ["eigen", f"{name}.tensor.json", "--kind", eig, "--format", fmt]))
                for method in ("enumeration", "iterative"):
                    out.append((f"solve_{method}_{name}.{fmt}",
                                ["solve", f"{name}.instance.json", "--method", method,
                                 "--format", fmt]))
    for kind in ("shifted", "symmetric"):
        write_json(f"m2n3_{kind}.tensor.json", draw(rng, 2, 3, kind))
    for name, diag in MATRIX_DIAGONALS.items():
        write_json(f"{name}.tensor.json", {"m": 2, "n": len(diag), "symmetric": True,
                                           "entries": entries(np.diag(diag), True)})
    for name in MATRIX_EIGEN_INPUTS:
        for eig in MATRIX_EIGEN_KINDS:
            out.append((f"eigen_{eig}_{name}", ["eigen", f"{name}.tensor.json", "--kind", eig]))
    out.extend(bounds_command(family, 2, n, symmetric) for family, n, symmetric in SYMMETRIC_MATRIX_BOUNDS)
    for m, n, s in NONNEG_SOLVES:
        name = f"m{m}n{n}_nonneg_s{s}"
        rng = np.random.default_rng([s, m, n, 11])
        write_json(f"{name}.instance.json", instance(workloads.nonneg_symmetric(rng, m, n, False), rng))
        for method in ("enumeration", "iterative"):
            out.append((f"solve_{method}_{name}", ["solve", f"{name}.instance.json", "--method", method]))
    for m, n, s in SCALED_SOLVES:
        for label, t in SCALES.items():
            name = f"m{m}n{n}_base_s{s}_q_times_{label}"
            rng = np.random.default_rng([s, m, n, 99])
            write_json(f"{name}.instance.json", instance(workloads.diag_dominant(rng, m, n, 0.5), rng, t))
            for method in ("enumeration", "iterative"):
                out.append((f"solve_{method}_{name}", ["solve", f"{name}.instance.json", "--method", method]))
    for m, kind in MULTISTART_SHAPES:
        name = f"m{m}n7_{kind}"
        write_json(f"{name}.tensor.json", draw(np.random.default_rng([m, 7, 20151]), m, 7, kind))
        for cmd in ("classify", "beta"):
            out.append((f"{cmd}_{name}", [cmd, f"{name}.tensor.json"]))
    return out


def run(cli_main, name: str, argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    with open(f"{name}.out", "w", encoding="utf-8") as fh:
        fh.write(stdout.getvalue())
    if code or stderr.getvalue():
        with open(f"{name}.err", "w", encoding="utf-8") as fh:
            fh.write(f"exit {code}\n{stderr.getvalue()}")


def outcome(tcpkit, fn, *args) -> dict:
    """The JSON form of ``fn(*args)``, or the error it raised; warnings are listed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = {"result": tcpkit.tensor._jsonable(fn(*args))}
        except (ValueError, RuntimeError) as exc:
            out = {"error": f"{type(exc).__name__}: {exc}"}
    if caught:
        out["warnings"] = [str(w.message) for w in caught]
    return out


def tcp_lines(tcpkit, workloads):
    for family, shapes in TCP_SHAPES.items():
        for m, n in shapes:
            for s in TCP_SEEDS:
                rng = np.random.default_rng([s, m, n, 99])
                if family == "diag_dominant":
                    A = tcpkit.Tensor(workloads.diag_dominant(rng, m, n, 0.5))
                else:
                    A = tcpkit.symmetrize(tcpkit.Tensor(draw_data(rng, m, n, "nonneg")))
                inst = tcpkit.TcpInstance(A, rng.uniform(-2.0, 1.0, size=n))
                yield {"input": {"family": family, "m": m, "n": n, "seed": s},
                       "enumeration": outcome(tcpkit, tcpkit.solve_enumeration, inst),
                       "iterative": outcome(tcpkit, tcpkit.solve_iterative, inst)}


def pareto_lines(tcpkit):
    def line(label: dict, A) -> dict:
        out = {"input": label, "pareto_h": outcome(tcpkit, tcpkit.pareto_h_eigenvalues, A)}
        if A.m % 2 == 0:
            out["pareto_z"] = outcome(tcpkit, tcpkit.pareto_z_eigenvalues, A)
        return out

    for m, n in PARETO_SHAPES:
        for s in PARETO_SEEDS:
            rng = np.random.default_rng([s, m, n, 4242])
            for label, kind in PARETO_KINDS.items():
                A = tcpkit.symmetrize(tcpkit.Tensor(draw_data(rng, m, n, kind)))
                yield line({"family": label, "m": m, "n": n, "seed": s}, A)
        for s in COPOSITIVE_SEEDS:
            spec = tcpkit.GeneratorSpec("random_symmetric_copositive", m, n, seed=s)
            yield line({"family": spec.family, "m": m, "n": n, "seed": s},
                       tcpkit.symmetrize(tcpkit.generate(spec)))


def exclusion_counts(tcp, workloads) -> dict:
    """``COUNTS`` over round 0 of the ``solve`` workload at ``COUNT_SEEDS``,
    or an ``error`` entry when ``tcp._rootless`` cannot be counted."""
    rule = getattr(tcp, "_rootless", None)
    if rule is None or list(inspect.signature(rule).parameters) != ["data", "S", "Q"]:
        return {"error": "no tcp._rootless(data, S, Q)"}
    totals = dict.fromkeys(COUNTS, 0)

    def spy(data, S, Q):
        result = rule(data, S, Q)
        try:
            rootless, cells, left = result
            totals["groups"] += 1
            totals["supports"] += len(rootless)
            totals["ruled_out"] += int(rootless.sum())
            totals["left_early"] += int(left.sum())
            totals["capped"] += int(np.sum(~rootless & ~left & (cells > 0)))
            totals["boxes"] += int(cells.sum())
        except (TypeError, ValueError, AttributeError) as exc:
            totals["error"] = f"tcp._rootless returned no (rootless, cells, left): {exc}"
        return result

    tcp._rootless = spy
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="enumeration found no solution")
            for seed in COUNT_SEEDS:
                for op in workloads.WORKLOADS["solve"](seed, 0):
                    try:
                        op.run()
                    except Exception:  # a raising operation still did its exclusion work
                        pass
    finally:
        tcp._rootless = rule
    return {"error": totals["error"]} if "error" in totals else totals


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory to write into (created)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the tcpkit package to run")
    args = parser.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    tcpkit = importlib.import_module("tcpkit")
    bounds, cli, eigen, tcp = (importlib.import_module(f"tcpkit.{mod}") for mod in ("bounds", "cli", "eigen", "tcp"))
    workloads = importlib.import_module("workloads")
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)  # relative file names keep the outputs free of DIR
    for name, argv in commands(bounds.GENERATOR_FAMILIES, eigen.EIGEN_KINDS, workloads):
        run(cli.main, name, argv)
        print(name, flush=True)
    for name, lines in (("probe_tcp.jsonl", tcp_lines(tcpkit, workloads)), ("probe_pareto.jsonl", pareto_lines(tcpkit))):
        with open(name, "w", encoding="utf-8") as fh:
            count = 0
            for obj in lines:
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
                count += 1
        print(f"{name}: {count} lines", flush=True)
    counts = exclusion_counts(tcp, workloads)
    write_json("exclusion_counts.json", counts)
    print("exclusion_counts.json:", " ".join(f"{k}={v}" for k, v in counts.items()), flush=True)


if __name__ == "__main__":
    main()

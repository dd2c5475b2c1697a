"""Seeded CLI outputs of one checkout, written to a directory for diffing.

    python3 tools/golden_outputs.py --out DIR [--src SRC]

Run it from any directory.  tcpkit is imported from ``SRC``, by default
the ``src`` next to this file, and the input draws of ``perfbench``'s
workloads from the ``perfbench`` next to this file, so one copy of this
script gives two checkouts the same inputs.  It writes the inputs it
makes, then runs the CLI in-process on them and writes one file per command with its
standard output, plus standard error and the exit code when the command
fails.  The commands are ``classify``, ``beta`` and ``norms`` on a fixed
list of m2-4, n2-6 tensors; every ``eigen`` kind on m3/m4 n3/n4 and m4 n5
tensors, and ``h_plus`` and ``pareto_h`` on m3 n5 ones; ``solve`` by both
methods at m3/m4, n3-n6; and ``verify-bounds`` (with its full report) for
every family at m3/m4, n3/n4 (order 2 for ``matrix_m2``), with the
``--csv`` file for ``random_symmetric_copositive``.  At m3 n3 and m4 n4,
``classify``, ``beta``, ``norms``, the ``h_plus``, ``pareto_h`` and
``delta_h_plus`` eigen kinds and ``solve`` also run with ``--format csv``
and ``--format text``.  Last come the ``h_plus``, ``pareto_h`` and
``pareto_z`` eigen kinds at order 2, on shifted and symmetric n3/n5
matrices and on ``diag(1, 1, 2)`` and the 3x3 identity, whose repeated
eigenvalues take the multi-column vertex rule, and then ``verify-bounds`` on symmetric matrices:
``matrix_m2 --symmetric`` at n3/n4 and ``random_symmetric_copositive`` at
order 2, n3.  After them, ``solve`` runs by both methods on two nonnegative
symmetric instances, m3 n5 and m4 n6 (``NONNEG_SOLVES``), drawn by
``perfbench/workloads.py``'s ``nonneg_symmetric``; on both, the
first start of ``--method iterative`` does not certify.  Then ``solve``
runs by both methods on the four scaled copies of ``perfbench``'s
``solve`` workload (``SCALED_SOLVES``): its two fixed ``diag_dominant``
bases, m3 n3 and m4 n3, with ``q`` times 1e6 and times 1e-9.  Last,
``classify`` and ``beta`` run at n7 (``MULTISTART_SHAPES``), where the
default grid is off and the sphere search is multistart only.  Every input
is drawn from a fixed seed, so two checkouts whose outputs agree give
directories that ``diff -r`` finds equal.
"""

from __future__ import annotations

import os

# BLAS threads pinned to one before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

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


def draw(rng: np.random.Generator, m: int, n: int, kind: str) -> dict:
    """A tensor object: ``mixed`` has uniform(-1, 1) entries, ``shifted`` adds
    a dominant diagonal to them, ``symmetric`` is exactly symmetric with
    uniform(0, 1) entries and a raised diagonal."""
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    diag = tuple([np.arange(n)] * m)
    if kind == "symmetric":
        data = np.abs(data)
        for cell in itertools.product(range(n), repeat=m):
            data[cell] = data[tuple(sorted(cell))]
        data[diag] += 0.5
    elif kind == "shifted":
        data[diag] = np.abs(data).reshape(n, -1).sum(axis=1) + 0.5
    return {"m": m, "n": n, "symmetric": kind == "symmetric",
            "entries": entries(data, kind == "symmetric")}


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory to write into (created)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the tcpkit package to run")
    args = parser.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    bounds, cli, eigen = (importlib.import_module(f"tcpkit.{mod}") for mod in ("bounds", "cli", "eigen"))
    workloads = importlib.import_module("workloads")
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)  # relative file names keep the outputs free of DIR
    for name, argv in commands(bounds.GENERATOR_FAMILIES, eigen.EIGEN_KINDS, workloads):
        run(cli.main, name, argv)
        print(name, flush=True)


if __name__ == "__main__":
    main()

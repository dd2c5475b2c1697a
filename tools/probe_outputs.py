"""Seeded library outputs of one checkout on two probe sets, written for diffing.

    python3 tools/probe_outputs.py --out DIR [--src SRC]

Run it from any directory.  tcpkit is imported from ``SRC``, by default
the ``src`` next to this file, so one copy of this script can probe two
checkouts.  It writes two files, one JSON line per input; each line names
its input (family, m, n, seed) and holds the library's results on it, or
the error a call raised.

- ``tcp.jsonl``, the 378-instance TCP probe: ``solve_enumeration`` and
  ``solve_iterative`` on 18 seeds (0-17) of 21 shapes.  ``diag_dominant``
  tensors (off-diagonal entries uniform(-1, 1), each diagonal entry its
  row's off-diagonal absolute sum plus 0.5 + uniform(0, 1)) run at m2
  n2-6 and m3/m4 n3-6, and ``nonneg_symmetric`` ones (uniform(0, 1)
  entries, the diagonal raised by 0.5 + uniform(0, 1), then
  ``tcpkit.symmetrize``) at m3/m4 n3-6.  Each instance is drawn from
  ``default_rng([s, m, n, 99])``: the tensor, then ``q ~ uniform(-2, 1)``.
- ``pareto.jsonl``, the 612-tensor Pareto probe: ``pareto_h_eigenvalues``
  and, at even order, ``pareto_z_eigenvalues`` at m3 n2-6 and m4 n2-5.
  For each seed 0-15, one ``default_rng([s, m, n, 4242])`` draws four
  tensors in turn: ``mixed`` (uniform(-1, 1) entries), ``nonneg``
  (uniform(0, 1) entries, the diagonal raised by 0.5 + uniform(0, 1)),
  ``zero_diagonal`` (uniform(0, 1) entries, the diagonal zero) and
  ``shifted`` (uniform(-1, 1) entries plus a uniform(0, 2) diagonal).
  Seeds 0-3 of ``generate(GeneratorSpec("random_symmetric_copositive", m,
  n, seed))`` follow.  Every input passes through ``tcpkit.symmetrize``,
  so each one is exactly symmetric.

Two checkouts whose library outputs agree give files that ``diff``
finds equal.
"""

from __future__ import annotations

import os

# BLAS threads pinned to one before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TCP_SHAPES = {
    "diag_dominant": [(2, n) for n in range(2, 7)] + [(m, n) for m in (3, 4) for n in range(3, 7)],
    "nonneg_symmetric": [(m, n) for m in (3, 4) for n in range(3, 7)],
}
TCP_SEEDS = range(18)
PARETO_SHAPES = [(3, n) for n in range(2, 7)] + [(4, n) for n in range(2, 6)]
PARETO_SEEDS = range(16)
PARETO_KINDS = ("mixed", "nonneg", "zero_diagonal", "shifted")
COPOSITIVE_SEEDS = range(4)


def diagonal_cells(m: int, n: int) -> tuple:
    return tuple([np.arange(n)] * m)


def diag_dominant(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    diag = diagonal_cells(m, n)
    data[diag] = 0.0
    data[diag] = np.abs(data).reshape(n, -1).sum(axis=1) + 0.5 + rng.uniform(0.0, 1.0, size=n)
    return data


def pareto_input(rng: np.random.Generator, m: int, n: int, kind: str) -> np.ndarray:
    """One unsymmetrized tensor of ``PARETO_KINDS`` (module docstring)."""
    diag = diagonal_cells(m, n)
    if kind in ("mixed", "shifted"):
        data = rng.uniform(-1.0, 1.0, size=(n,) * m)
        if kind == "shifted":
            data[diag] += rng.uniform(0.0, 2.0, size=n)
        return data
    data = rng.uniform(0.0, 1.0, size=(n,) * m)
    data[diag] = 0.0 if kind == "zero_diagonal" else data[diag] + 0.5 + rng.uniform(0.0, 1.0, size=n)
    return data


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


def tcp_lines(tcpkit):
    for family, shapes in TCP_SHAPES.items():
        for m, n in shapes:
            for s in TCP_SEEDS:
                rng = np.random.default_rng([s, m, n, 99])
                if family == "diag_dominant":
                    A = tcpkit.Tensor(diag_dominant(rng, m, n))
                else:
                    A = tcpkit.symmetrize(tcpkit.Tensor(pareto_input(rng, m, n, "nonneg")))
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
            for kind in PARETO_KINDS:
                A = tcpkit.symmetrize(tcpkit.Tensor(pareto_input(rng, m, n, kind)))
                yield line({"family": kind, "m": m, "n": n, "seed": s}, A)
        for s in COPOSITIVE_SEEDS:
            spec = tcpkit.GeneratorSpec("random_symmetric_copositive", m, n, seed=s)
            yield line({"family": spec.family, "m": m, "n": n, "seed": s},
                       tcpkit.symmetrize(tcpkit.generate(spec)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory to write into (created)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the tcpkit package to probe")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    tcpkit = importlib.import_module("tcpkit")
    os.makedirs(args.out, exist_ok=True)
    for name, lines in (("tcp.jsonl", tcp_lines(tcpkit)), ("pareto.jsonl", pareto_lines(tcpkit))):
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            count = 0
            for obj in lines:
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
                count += 1
        print(f"{name}: {count} lines", flush=True)


if __name__ == "__main__":
    main()

"""The three workloads: their inputs, the tcpkit calls that make one operation,
and the independent checks applied to each operation's outputs.

A round is a fixed list of operations.  Round ``r`` of a run with seed ``s``
draws its inputs from ``default_rng([s, r, tag])``; the inputs of the failing
scaled-offset operations in ``solve`` are fixed and do not depend on the
seed, so every round has the same number of them.  Every call goes through
an attribute lookup on the ``tcpkit`` package at call time, so the traced
run sees it once the tracer has rebound the name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checker
import tcpkit

CFG = tcpkit.RunConfig()

WRONG = "wrong-output"
# A check result that is reported but does not fail the operation.
NOTE = "note"

# Program faults that make the fixed scaled-offset operations of `solve`
# fail.  Each failure is attributed to one of these by its symptom.
FAULTS = {
    "scale-1e6-no-solution": (
        "q scaled by 1e6: solve_enumeration returns no solution and/or "
        "solve_iterative raises NonConvergenceError, because verify_solution's "
        "absolute 1e-8 tolerance rejects the true roots at that scale"
    ),
    "scale-1e-9-spurious-solution": (
        "q scaled by 1e-9: x = 0 (or a spurious point) passes verify_solution's "
        "absolute tolerance although w = q + A x^(m-1) < 0 at the problem's scale"
    ),
}


@dataclass
class Op:
    """One operation: ``run`` calls tcpkit, ``check`` judges its output.

    ``check`` returns None when the output is right, else ``(fault, detail)``
    where ``fault`` is a key of FAULTS or WRONG, or NOTE for a right output
    that comes with an observation worth reporting.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str] | None]


# ---------------------------------------------------------------------------
# tensor constructions (numpy only; tcpkit receives the finished arrays)
# ---------------------------------------------------------------------------


def _diag_index(n: int, m: int) -> tuple:
    idx = np.arange(n)
    return tuple([idx] * m)


def diag_dominant(rng: np.random.Generator, m: int, n: int, margin: float) -> np.ndarray:
    """Mixed-sign entries with a diagonal exceeding each row's off-diagonal
    absolute sum by at least ``margin``: strictly semi-positive with margin
    at least ``margin`` (take k with x_k = 1; the k-th activity is then at
    least ``margin``).  At order 2 this is a P-matrix."""
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    cell = _diag_index(n, m)
    data[cell] = 0.0
    off = np.abs(data).reshape(n, -1).sum(axis=1)
    data[cell] = off + margin + rng.uniform(0.0, 1.0, size=n)
    return data


def _symmetrized(data: np.ndarray) -> np.ndarray:
    perms = list(itertools.permutations(range(data.ndim)))
    return sum(np.transpose(data, p) for p in perms) / len(perms)


def nonneg_symmetric(rng: np.random.Generator, m: int, n: int, zero_diagonal: bool) -> np.ndarray:
    """Nonnegative symmetric entries; the diagonal is either raised by at
    least 0.5 or set to zero.  For any nonnegative tensor the margin equals
    the smallest diagonal entry."""
    data = _symmetrized(rng.uniform(0.0, 1.0, size=(n,) * m))
    cell = _diag_index(n, m)
    data[cell] = 0.0 if zero_diagonal else data[cell] + 0.5 + rng.uniform(0.0, 1.0, size=n)
    return data


def nonneg_zero_diagonal(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    data = rng.uniform(0.0, 1.0, size=(n,) * m)
    data[_diag_index(n, m)] = 0.0
    return data


def diagonal(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    data = np.zeros((n,) * m)
    data[_diag_index(n, m)] = rng.uniform(0.2, 2.0, size=n)
    return data


# Grid resolution of the checker's margin verdict per dimension, and the
# room by which the verdict must be proved.
_GRID_POINTS = {3: 81, 4: 41}
_DECISIVE = 0.05


def decisive_mixed(
    rng: np.random.Generator, m: int, n: int, symmetric: bool, verdict: str
) -> np.ndarray:
    """Mixed-sign tensor whose ``verdict`` the checker's dense grid proves.

    Entries are uniform on [-1, 1] (symmetrized when asked) and the diagonal
    is shifted down for a not-semi-positive target and up for a strictly
    semi-positive one.  Draws the grid does not prove with room are
    discarded and redrawn from the same stream.
    """
    high = 3.0 * n ** (m - 2)
    while True:
        data = rng.uniform(-1.0, 1.0, size=(n,) * m)
        if symmetric:
            data = _symmetrized(data)
        shift = rng.uniform(-high, 0.0) if verdict == checker.NOT_SEMI else rng.uniform(0.0, high)
        data[_diag_index(n, m)] += shift
        if checker.grid_verdict(data, _GRID_POINTS[n], _DECISIVE) == verdict:
            return data


# ---------------------------------------------------------------------------
# sandwich: verify_bounds over the criterion-7 mix
# ---------------------------------------------------------------------------

SANDWICH_MIX = (
    [
        (family, m, n, {})
        for family in ("identity_shift", "diag_dominant", "random_symmetric_copositive")
        for m in (2, 3, 4)
        for n in (2, 3, 4)
    ]
    + [("matrix_m2", 2, n, {}) for n in (2, 3, 4)]
    + [("matrix_m2", 2, n, {"symmetric": True}) for n in (2, 3, 4)]
)
# verify_bounds gives instance k a nonnegative offset when k % 10 == 9, so
# this call runs the zero-solution branch.  Every other call solves one
# instance, which keeps the median call inside the cluster of cheap,
# steady order-2 and n = 2 calls.
SANDWICH_COUNTS = {("diag_dominant", 3, 2, False): 10}
SANDWICH_BUDGET = 8  # estimate budget of `tcpkit verify-bounds`


def _sandwich_check(spec, count: int, reports) -> tuple[str, str] | None:
    if isinstance(reports, Exception):
        return WRONG, f"verify_bounds raised {reports!r}"
    m, n = spec.m, spec.n
    per_instance: dict[int, list] = {}
    for rep in reports:
        per_instance.setdefault(int(rep.instance_id.rsplit("-", 1)[1]), []).append(rep)
    if sorted(per_instance) != list(range(count)):
        return WRONG, f"reports cover instances {sorted(per_instance)}, expected 0..{count - 1}"
    for k, reps in per_instance.items():
        if k % 10 == 9:
            if len(reps) != 1:
                return WRONG, f"nonnegative offset (instance {k}) gave {len(reps)} reports"
            values = [
                v for e in reps[0].entries for v in (e.lower, e.upper, e.achieved) if v is not None
            ]
            if any(v != 0.0 for v in values):
                return WRONG, f"nonnegative offset (instance {k}) gave a nonzero report"
        for rep in reps:
            if not rep.passed:
                return WRONG, f"{rep.instance_id} reports a failed sandwich"
            achieved = {e.quantity: e.achieved for e in rep.entries}
            if not checker.norm_order_ok(achieved["inf"], achieved["two"], achieved["m"], m, n):
                return WRONG, f"{rep.instance_id}: achieved norms out of p-norm order {achieved}"
            for e in rep.entries:
                if not e.applicable:
                    continue
                tol = 1e-6 * max(1.0, abs(e.achieved))
                if e.lower is not None and e.achieved < e.lower - tol:
                    return WRONG, f"{rep.instance_id}/{e.entry_id}: achieved below lower"
                if e.upper is not None and e.achieved > e.upper + tol:
                    return WRONG, f"{rep.instance_id}/{e.entry_id}: achieved above upper"
                if e.lower is not None and e.lower_empirical is not None:
                    if e.lower_empirical < e.lower * (1.0 - 1e-9) - 1e-12:
                        return WRONG, f"{rep.instance_id}/{e.entry_id}: lower_empirical < lower"
    return None


def sandwich_round(seed: int, r: int) -> list[Op]:
    rng = np.random.default_rng([seed, r, 1])
    ops = []
    for family, m, n, params in SANDWICH_MIX:
        spec = tcpkit.GeneratorSpec(family, m, n, seed=int(rng.integers(2**31)), parameters=params)
        count = SANDWICH_COUNTS.get((family, m, n, bool(params)), 1)
        ops.append(
            Op(
                label=f"{family}{'-sym' if params else ''}-m{m}-n{n}-count{count}",
                run=lambda spec=spec, count=count: tcpkit.verify_bounds(
                    spec, count, CFG, estimate_budget=SANDWICH_BUDGET
                ),
                check=lambda out, spec=spec, count=count: _sandwich_check(spec, count, out),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# solve: enumeration then the iterative solver, one instance per operation
# ---------------------------------------------------------------------------

# (m, n, how many per round) of the seeded diagonally dominant instances.
# Ordered by time, the round is 6 light operations (order 2 and the fixed
# copies), 4 at m4 n5, and 5 heavy ones, so the median operation sits
# inside the m4 n5 group.
SOLVE_MIX = [(3, 4, 3), (3, 5, 1), (4, 5, 4), (4, 6, 1), (2, 6, 2)]
# Above order 2 each offset has exactly this many positive entries.  How
# many supports have no positive root, and so how many Newton starts fail,
# follows the sign pattern of q; fixing the count of positive entries keeps
# an order-3 solve within about 20% of its mean time instead of varying
# tenfold between draws.
POSITIVE_OFFSETS = 2
# Fixed base instances (m, n, stream) of the scaled-offset copies; drawn with
# the diagonally dominant construction from default_rng([stream, m, n, 99]).
SCALED_BASES = [(3, 3, 9), (4, 3, 3)]
SCALES = (1e6, 1e-9)


def _solve_run(A: np.ndarray, q: np.ndarray):
    inst = tcpkit.TcpInstance(tcpkit.Tensor(A), q)
    sols = tcpkit.solve_enumeration(inst, CFG)
    try:
        it = tcpkit.solve_iterative(inst, CFG)
    except tcpkit.NonConvergenceError as exc:
        it = exc
    return sols, it


def _solve_problems(A, q, out) -> list[str]:
    """Every way the output misses the checker's requirements."""
    if isinstance(out, Exception):
        return [f"raised: {out!r}"]
    sols, it = out
    xs = [s.x for s in sols]
    problems = []
    if not xs:
        problems.append("no-solution: solve_enumeration returned no solution")
    for x in xs:
        why = checker.certify(A, q, x)
        if why:
            problems.append(f"uncertified: enumeration point {np.round(x, 6).tolist()}: {why}")
    if isinstance(it, Exception):
        # solve_iterative fails to converge on about one seeded instance in
        # a hundred; that is reported, not failed (see CHANGES.md).
        problems.append(f"note: solve_iterative raised {type(it).__name__}")
    else:
        why = checker.certify(A, q, it.x)
        if why:
            problems.append(f"uncertified: iterative point: {why}")
        elif xs and not any(checker.same_point(it.x, x) for x in xs):
            if A.ndim == 2:
                problems.append("mismatch: iterative solution is not among the enumeration solutions")
            else:
                # Enumeration completeness is documented as heuristic above
                # order 2 and misses a root on a few seeded instances, so a
                # miss is reported, not failed (see CHANGES.md).
                problems.append("note: enumeration missed the certified solution solve_iterative found")
    return problems


def _verdict(problems: list[str]) -> tuple[str, str] | None:
    if not problems:
        return None
    if all(p.startswith("note:") for p in problems):
        return NOTE, "; ".join(problems)
    return WRONG, "; ".join(problems)


def _solve_check(A, q, out) -> tuple[str, str] | None:
    problems = _solve_problems(A, q, out)
    if A.ndim == 2 and not problems:
        if len(out[0]) != 1:
            problems.append(f"order-2 P-matrix instance has {len(out[0])} solutions, expected 1")
        elif not checker.same_point(out[0][0].x, checker.lemke(A, q)):
            problems.append("order-2 solution differs from the Lemke solution")
    return _verdict(problems)


def _scaled_check(A, q, t: float, base: list, out) -> tuple[str, str] | None:
    """Checks a copy with q scaled by t against the base instance's solutions
    ``base`` (certified when the round was built)."""
    expected = [x * t ** (1.0 / (A.ndim - 1)) for x in base]
    found = _solve_problems(A, q, out)
    problems = [p for p in found if not p.startswith("note:")]
    if not problems and not checker.same_point_set([s.x for s in out[0]], expected):
        problems.append("mismatch: solutions are not t^(1/(m-1)) times the base solutions")
    if not problems:
        return _verdict(found)
    detail = "; ".join(dict.fromkeys(found + problems))
    # attribute the failure to a named fault only when the symptom is its own
    if t > 1.0 and all(p.startswith("no-solution") for p in problems):
        return "scale-1e6-no-solution", detail
    spurious = all(p.startswith(("uncertified", "mismatch")) for p in problems)
    if t < 1.0 and spurious and all(s.residuals.ok for s in out[0]):
        return "scale-1e-9-spurious-solution", detail
    return WRONG, detail


def _fixed_base(m: int, n: int, stream: int) -> tuple[np.ndarray, np.ndarray, list]:
    """A fixed base instance and its certified enumeration solutions."""
    rng = np.random.default_rng([stream, m, n, 99])
    A = diag_dominant(rng, m, n, 0.5)
    q = rng.uniform(-2.0, 1.0, size=n)
    sols = _solve_run(A, q)[0]
    if not sols or any(checker.certify(A, q, s.x) for s in sols):
        raise RuntimeError(f"fixed base instance m={m} n={n} has no certified solution")
    return A, q, [s.x for s in sols]


def solve_round(seed: int, r: int) -> list[Op]:
    rng = np.random.default_rng([seed, r, 2])
    ops = []
    for m, n, k in SOLVE_MIX:
        for _ in range(k):
            A = diag_dominant(rng, m, n, 0.5)
            if m == 2:
                q = rng.uniform(-2.0, 1.0, size=n)
            else:
                q = -rng.uniform(0.2, 2.0, size=n)
                q[rng.permutation(n)[:POSITIVE_OFFSETS]] = rng.uniform(0.2, 1.0, size=POSITIVE_OFFSETS)
            ops.append(
                Op(
                    label=f"diag_dominant-m{m}-n{n}",
                    run=lambda A=A, q=q: _solve_run(A, q),
                    check=lambda out, A=A, q=q: _solve_check(A, q, out),
                )
            )
    for m, n, stream in SCALED_BASES:
        A, q, base = _fixed_base(m, n, stream)
        for t in SCALES:
            ops.append(
                Op(
                    label=f"fixed-base-m{m}-n{n}-q-times-{t:g}",
                    run=lambda A=A, q=q * t: _solve_run(A, q),
                    check=lambda out, A=A, q=q * t, t=t, base=base: _scaled_check(A, q, t, base, out),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# margin: classify (plus strict copositivity on symmetric tensors)
# ---------------------------------------------------------------------------

# (family, m, n) per round.  Families: "dd" diagonally dominant (margin 0.5),
# "nonneg" nonnegative symmetric with positive diagonal, "zero" nonnegative
# with zero diagonal, "zero_sym" its symmetric form, "diag" diagonal, and
# mixed-sign tensors with a grid-proved verdict, strictly semi-positive
# ("mixed_ssp", "mixed_sym_ssp") or not semi-positive ("mixed_not",
# "mixed_sym_not").
MARGIN_MIX = [
    ("dd", 2, 4), ("dd", 3, 4), ("dd", 3, 6), ("dd", 4, 4), ("dd", 4, 5),
    ("nonneg", 2, 5), ("nonneg", 3, 4), ("nonneg", 3, 5), ("nonneg", 4, 4),
    ("zero", 2, 4), ("zero", 3, 3), ("zero_sym", 3, 4), ("zero", 4, 3),
    ("diag", 2, 6), ("diag", 3, 5), ("diag", 4, 4),
    ("mixed_ssp", 2, 3), ("mixed_not", 2, 4), ("mixed_not", 3, 3), ("mixed_ssp", 3, 4),
    ("mixed_sym_not", 3, 3), ("mixed_sym_ssp", 3, 3),
]
DD_MARGIN = 0.5


def _margin_run(A: np.ndarray):
    T = tcpkit.Tensor(A)
    cls = tcpkit.classify(T, CFG)
    cop = tcpkit.is_copositive(T, strict=True, cfg=CFG) if T.symmetric else None
    return cls, cop


def _margin_check(family: str, A: np.ndarray, expected: str, out) -> tuple[str, str] | None:
    if isinstance(out, Exception):
        return WRONG, f"raised {out!r}"
    cls, cop = out
    b = cls.beta
    problems = []
    if cls.verdict != expected:
        problems.append(f"verdict {cls.verdict}, expected {expected}")
    x = np.asarray(b.argmin, dtype=float)
    if float(x.min()) < 0.0 or abs(float(x.max()) - 1.0) > 1e-12:
        problems.append("beta argmin is off the nonnegative unit infinity-sphere")
    elif abs(float(checker.activity(A, x[None, :])[0]) - b.value) > 1e-9 * max(1.0, abs(b.value)):
        problems.append("beta value is not the objective at its argmin")
    dmin = checker.min_diagonal(A)
    tol = 1e-9 * max(1.0, dmin)
    if family == "dd" and not (DD_MARGIN - tol <= b.value <= dmin + tol):
        problems.append(f"beta {b.value} outside [margin {DD_MARGIN}, min diagonal {dmin}]")
    if family in ("nonneg", "diag", "zero", "zero_sym") and abs(b.value - dmin) > tol:
        problems.append(f"beta {b.value} differs from the min diagonal {dmin}")
    if expected == checker.NOT_SEMI and (
        cls.counterexample is None or not checker.is_witness(A, cls.counterexample)
    ):
        problems.append("not_semi_positive without a valid witness")
    if cop is not None and cop != (expected == checker.STRICT):
        problems.append(f"is_copositive(strict=True) = {cop} disagrees with verdict {expected}")
    return (WRONG, "; ".join(problems)) if problems else None


def margin_round(seed: int, r: int) -> list[Op]:
    rng = np.random.default_rng([seed, r, 3])
    ops = []
    for family, m, n in MARGIN_MIX:
        if family == "dd":
            A, expected = diag_dominant(rng, m, n, DD_MARGIN), checker.STRICT
        elif family == "nonneg":
            A, expected = nonneg_symmetric(rng, m, n, zero_diagonal=False), checker.STRICT
        elif family == "zero":
            A, expected = nonneg_zero_diagonal(rng, m, n), checker.SEMI_ONLY
        elif family == "zero_sym":
            A, expected = nonneg_symmetric(rng, m, n, zero_diagonal=True), checker.SEMI_ONLY
        elif family == "diag":
            A, expected = diagonal(rng, m, n), checker.STRICT
        else:
            expected = checker.STRICT if family.endswith("ssp") else checker.NOT_SEMI
            A = decisive_mixed(rng, m, n, "_sym" in family, expected)
        ops.append(
            Op(
                label=f"{family}-m{m}-n{n}",
                run=lambda A=A: _margin_run(A),
                check=lambda out, family=family, A=A, expected=expected: _margin_check(
                    family, A, expected, out
                ),
            )
        )
    return ops


WORKLOADS = {"sandwich": sandwich_round, "solve": solve_round, "margin": margin_round}

"""Eigenpair enumeration over the nonnegative orthant.

Every variant is one enumeration by support (:func:`_enumerate`): a vector
carried by a support J is strictly positive there, so candidates come from
solving the eigen system of the principal sub-tensor on J with a strictly
positive unknown, then zero-extending and checking the remaining rows.
Two switches pick the variant:

- the system ``A x^(m-1) = lam x^[e]``, stated once with its power e
  (:func:`_power`): ``"H"`` has ``e = m - 1`` and scales its records to
  ``max|x| = 1``; ``"Z"`` has ``e = 1`` and ``||x||_2 = 1`` (``_SYSTEMS``
  names each system's record kinds and normalization);
- the check (:func:`_verify`): equality off the support gives ``h_plus`` /
  ``z_plus``, a one-sided inequality the Pareto variants, none ``delta_*``.

``*plusplus`` solves only the full support and keeps its orthant records,
and ``delta_*`` takes the least interior eigenvalue of every principal
sub-tensor; its records (kind ``delta_h_plus`` / ``delta_z_plus``) are
zero-extended, with the residual taken on the support's rows.
:func:`spectrum` reads one table from each kind to its function and the
summary field of its minimum.  Each enumeration runs at unit scale, on
:func:`tcpkit.tensor.at_unit_scale`'s copy, and scales its values back.

Per-support solving is exact for matrices and closed form on singleton
supports.  A matrix support takes a dense eigensolver, and an eigenspace
counts when it meets the open positive orthant: :func:`_positive_eigvec`
maximizes the smallest component over the span exactly, by one stacked
solve of its k-row vertices for a k-dimensional eigenspace.  Everything
else is damped Newton from many random positive starts, so completeness is
heuristic and flagged as such.
Where it is heuristic (order 3 and up, n >= 2), the least Pareto value of a
symmetric tensor is also seeded from a minimization of the contraction over
the feasible cone (its KKT points are the Pareto eigenpairs), which makes
the minimum reliable; at order 2 the eigendecomposition is exact alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .config import CLUSTER_TOL, DEFAULT_CONFIG, POSITIVITY_FLOOR, RESIDUAL_TOL, RunConfig
# damped_newton is unused here but stays bound: perfbench's tracer expects it
from .optimize import (  # noqa: F401
    damped_newton, first_of_clusters, minimize_nonneg_sphere, newton_lanes, solve_stack,
)
from .tensor import (
    JsonRecord,
    Tensor,
    at_unit_scale,
    contract_m1,
    contract_m1_batch,
    lane_maps,
    stacked_subtensors,
    supports_by_size,
    zero_extend,
)

NEWTON_STARTS = 32      # random Newton starts per support
INTERIOR_FLOOR = 1e-5   # smaller components mean the root belongs to a sub-support

__all__ = [
    "EigenRecord",
    "SpectrumSummary",
    "DeltaResult",
    "h_plus_eigenpairs",
    "h_plusplus_eigenpairs",
    "z_plus_eigenpairs",
    "z_plusplus_eigenpairs",
    "pareto_h_eigenvalues",
    "pareto_z_eigenvalues",
    "delta_h_plus",
    "delta_z_plus",
    "spectrum",
    "distinct_values",
    "EIGEN_KINDS",
]

# system -> (orthant record kind, Pareto record kind, record normalization)
_SYSTEMS = {
    "H": ("h_plus", "pareto_h", "max_abs=1"),
    "Z": ("z_plus", "pareto_z", "two_norm=1"),
}


@dataclass
class EigenRecord(JsonRecord):
    kind: str
    value: float
    vector: np.ndarray
    support: tuple[int, ...]
    residual: float
    normalization: str  # "max_abs=1" or "two_norm=1"


@dataclass
class DeltaResult:
    """Minimum eigenvalue over all principal sub-tensors possessing one."""

    value: float
    heuristic: bool
    records: list[EigenRecord] = field(default_factory=list)


@dataclass
class SpectrumSummary(JsonRecord):
    records: list[EigenRecord]
    delta_h_plus: float | None = None
    delta_z_plus: float | None = None
    lambda_min_pareto_h: float | None = None
    mu_min_pareto_z: float | None = None
    completeness: str = "heuristic"


def distinct_values(records: list[EigenRecord], tol: float = 1e-6) -> list[float]:
    """Sorted eigenvalues with duplicates within tol collapsed."""
    values = sorted(r.value for r in records)
    return [values[i] for i in first_of_clusters(values, tol)]


# ---------------------------------------------------------------------------
# per-support interior solves: strictly positive y with
#   A_J y^(m-1) = lam * y^[e],  e = m - 1 for H and 1 for Z (||y||_2 = 1 for Z)
# ---------------------------------------------------------------------------


def _positive_eigvec(basis: np.ndarray) -> np.ndarray | None:
    """A strictly positive unit vector in the column span of ``basis``, or None.

    Maximizes the smallest component t of ``y = basis @ c`` over ``sum(y) = 1``
    and accepts iff ``t > POSITIVITY_FLOOR``.  For k orthonormal columns the
    optimum is a vertex where k components of y are equal, so each k-row
    subset s gives the system ``[colsum; basis[s_j] - basis[s_0]] c = e_1``
    (at most ``C(8, 4) = 70`` of them, one stack; a singular one drops out).
    One column ``b`` gives ``b / sum(b)`` from its 1x1 systems, and none
    when ``sum(b) = 0``.  A point
    with ``min(y) > 0`` has ``||c||_2 = ||y||_2 <= sum(y)``, so its sum, and
    with it t, is accurate however ill-conditioned its system.
    """
    r, k = basis.shape
    colsum = basis.sum(axis=0)
    systems = np.array([np.vstack([colsum, basis[list(s[1:])] - basis[s[0]]])
                        for s in itertools.combinations(range(r), k)])
    C, usable = solve_stack(systems, np.eye(k)[:, :1])
    points = [basis @ c for c in C[usable, :, 0]]
    y = max(points, key=np.min, default=None)
    if y is None or np.min(y) <= POSITIVITY_FLOOR:
        return None
    return y / np.linalg.norm(y)


def _matrix_support_candidates(M: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Exact interior eigenpairs of a matrix: real eigenvalues whose eigenspace
    meets the strictly positive orthant."""
    r = M.shape[0]
    real = sorted(float(v.real) for v in np.linalg.eigvals(M) if abs(v.imag) < 1e-9)
    clusters: list[list[float]] = []
    for v in real:
        if clusters and v - clusters[-1][-1] <= 1e-9:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    scale = max(1.0, float(np.abs(M).max()))
    out: list[tuple[float, np.ndarray]] = []
    for group in clusters:
        lam = float(np.mean(group))
        shifted = M - lam * np.eye(r)
        _, s, vh = np.linalg.svd(shifted)
        basis = vh[s < 1e-8 * scale].T
        if basis.shape[1] == 0:
            basis = vh[[-1]].T  # eigvals certifies singularity; take the weakest direction
        y = _positive_eigvec(basis)
        if y is not None:
            out.append((float(y @ (M @ y)), y))
    return out


def _newton_candidates(
    A: Tensor, group: list[tuple[int, ...]], system: str, cfg: RunConfig,
    seeds: dict[tuple[int, ...], list[tuple[np.ndarray, float]]],
) -> list[list[tuple[float, np.ndarray]]]:
    """Multi-start damped Newton on the support systems ``A_J y^(m-1) = lam
    y^[e]`` of one size (e from :func:`_power`), every start of every support
    as one lane array; y normalized to the 2-sphere inside the iteration,
    strict positivity enforced afterwards.  The start eigenvalues of the
    whole group take one batched contraction.  Returns the pairs of the
    converged lanes, one candidate list per support in group order, for
    :func:`_verify` to decide; each support keeps its own start stream and
    clustering."""
    r, m = len(group[0]), A.m
    e = _power(system, m)
    Y0, lam0, counts = [], [], []
    for J in group:
        rng = cfg.substream("eigen", system, str(J))
        pairs = seeds.get(J, [])
        raw = rng.uniform(0.1, 1.0, size=(cfg.budget(NEWTON_STARTS), r))
        Y0 += [y0 for y0, _ in pairs] + [np.ones(r) / np.sqrt(r)]
        Y0 += [row / np.linalg.norm(row) for row in raw]
        lam0 += [lam for _, lam in pairs] + [None] * (1 + len(raw))
        counts.append(len(pairs) + 1 + len(raw))
    owner = np.repeat(np.arange(len(group)), counts)
    contract, jacobian = lane_maps(*stacked_subtensors(A, group), owner)
    Y0 = np.array(Y0)
    core = contract(Y0[:, None, :], np.arange(len(Y0)))[:, 0]
    lam0 = [_rayleigh(y, c, system, m) if lam is None else lam for y, c, lam in zip(Y0, core, lam0)]
    Z0 = np.column_stack([Y0, lam0])

    def residual(Z: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        Y, lam = Z[..., :r], Z[..., r:]
        eig_part = contract(Y, lanes) - lam * Y**e
        return np.concatenate([eig_part, np.sum(Y * Y, axis=-1, keepdims=True) - 1.0], axis=-1)

    def jac(Z: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        Y, lam = Z[:, :r], Z[:, r]
        out = np.zeros((Z.shape[0], r + 1, r + 1))
        out[:, :r, :r] = jacobian(Y, lanes)
        diag = np.arange(r)
        out[:, diag, diag] -= lam[:, None] * e * Y ** (e - 1)
        out[:, :r, r] = -(Y**e)
        out[:, r, :r] = 2.0 * Y
        return out

    Z, ok = newton_lanes(residual, jac, Z0)
    Y, lam = Z[:, :r], Z[:, r]
    # roots with dust components are boundary solutions of this support;
    # their true (smaller) support enumerates them separately
    lanes = np.flatnonzero(ok & (np.min(Y, axis=1) > INTERIOR_FLOOR))
    Y, lam = Y[lanes] / np.linalg.norm(Y[lanes], axis=1, keepdims=True), lam[lanes]
    if system == "Z":
        lam = np.sum(Y * contract(Y[:, None, :], lanes)[:, 0], axis=1)
    return [
        _cluster_pairs([(float(l), y) for l, y in zip(lam[mine], Y[mine])])
        for mine in (owner[lanes] == s for s in range(len(group)))
    ]


def _power(system: str, m: int) -> int:
    """The power of x that lam scales in the eigen system: m - 1 for H, 1 for Z."""
    return m - 1 if system == "H" else 1


def _rayleigh(y: np.ndarray, core: np.ndarray, system: str, m: int) -> float:
    """The start eigenvalue of a strictly positive y, with ``core = A_J y^(m-1)``."""
    if system == "H":
        return float(y @ core) / float(np.sum(y**m))
    return float(y @ core)


def _cluster_pairs(pairs: list[tuple[float, np.ndarray]]) -> list[tuple[float, np.ndarray]]:
    pairs = sorted(pairs, key=lambda p: (p[0], tuple(p[1])))
    return [pairs[i] for i in first_of_clusters([np.append(l, y) for l, y in pairs], CLUSTER_TOL)]


def _interior_candidates(
    A: Tensor, system: str, cfg: RunConfig,
    seeds: dict[tuple[int, ...], list[tuple[np.ndarray, float]]],
    full_only: bool = False,
) -> dict[tuple[int, ...], list[tuple[float, np.ndarray]]]:
    """Interior (strictly positive, 2-normalized) eigenpairs of A restricted
    to every support J (only the full support with ``full_only``), in
    support order.

    Singletons are closed form and matrices exact, read from one gather of
    each size's sub-matrices; above order 2 the supports of one size share
    one Newton lane array, which also starts from ``seeds``.
    """
    out: dict[tuple[int, ...], list[tuple[float, np.ndarray]]] = {}
    for group in [[tuple(range(A.n))]] if full_only else supports_by_size(A.n):
        if len(group[0]) == 1:
            for J in group:
                out[J] = [(float(A.data[tuple([J[0]] * A.m)]), np.array([1.0]))]
        elif A.m == 2:
            data, _ = stacked_subtensors(A, group)
            out.update(zip(group, map(_matrix_support_candidates, data)))
        else:
            out.update(zip(group, _newton_candidates(A, group, system, cfg, seeds)))
    return out


# ---------------------------------------------------------------------------
# zero-extension, verification, record assembly
# ---------------------------------------------------------------------------


def _verify(
    A: Tensor, J: tuple[int, ...], lam: float, y: np.ndarray,
    system: str, check: str,
) -> EigenRecord | None:
    """The record of an interior pair of support J, zero-extended and
    normalized, or None when its residual exceeds ``RESIDUAL_TOL``.

    ``check`` picks the rows the residual covers: ``"orthant"`` asks
    equality on every row, ``"pareto"`` equality on J, nonnegativity off J
    and the value identity, ``"delta"`` equality on J only (the sub-tensor's
    own eigenpair).
    """
    x = zero_extend(y, J, A.n)
    if system == "H":
        x = x / float(np.max(np.abs(x)))
        mass = float(np.sum(x**A.m))
    else:
        x = x / float(np.linalg.norm(x))
        mass = 1.0  # ||x||_2 = 1 makes the Pareto scaling factor 1
    rows = contract_m1(A, x)
    gap = rows - lam * x ** _power(system, A.m)
    residual = float(np.max(np.abs(gap[list(J)])))
    off = [i for i in range(A.n) if i not in J]
    if check == "pareto":
        off_violation = float(max(0.0, -np.min(gap[off]))) if off else 0.0
        value_gap = abs(float(x @ rows) - lam * mass)
        residual = max(residual, off_violation, value_gap)
    elif check == "orthant":
        residual = float(np.max(np.abs(gap)))
    if residual > RESIDUAL_TOL:
        return None
    orthant, pareto_kind, normalization = _SYSTEMS[system]
    kind = {"orthant": orthant, "pareto": pareto_kind, "delta": f"delta_{orthant}"}[check]
    return EigenRecord(kind=kind, value=lam, vector=x, support=J, residual=residual,
                       normalization=normalization)


def _dedupe_records(records: list[EigenRecord]) -> list[EigenRecord]:
    records = sorted(records, key=lambda r: (r.value, r.support, tuple(r.vector)))
    rows = [np.append(r.value, r.vector) for r in records]
    return [records[i] for i in first_of_clusters(rows, CLUSTER_TOL)]


def _completeness(A: Tensor) -> str:
    return "closed_form" if A.m == 2 or A.n == 1 else "heuristic"


# ---------------------------------------------------------------------------
# variational seeding of the minimum Pareto value (symmetric tensors)
#
# For symmetric A the KKT points of  min A x^m  over {x >= 0, s(x) = 1}
# (s the m-th power sum for the H variant, the m/2 power of x.x for Z) are
# exactly the Pareto eigenpairs and the global minimum attains the least
# one, so a cone minimization of the scale-invariant ratio supplies a
# high-quality Newton seed on the minimizer's support.  It runs only where
# completeness is heuristic: a matrix's Pareto values are eigenvalues found
# exactly, and a seeded root would only copy one with different rounding.
# ---------------------------------------------------------------------------


def _variational_seed(
    A: Tensor, system: str, cfg: RunConfig
) -> dict[tuple[int, ...], list[tuple[np.ndarray, float]]]:
    if not A.symmetric:
        return {}

    def ratio(X: np.ndarray) -> np.ndarray:
        num = np.sum(X * contract_m1_batch(A, X), axis=1)
        if system == "H":
            den = np.sum(X**A.m, axis=1)
        else:
            den = np.sum(X**2, axis=1) ** (A.m / 2.0)
        return num / den

    res = minimize_nonneg_sphere(ratio, A.n, cfg, f"pareto_seed_{system}")
    x = res.argmin
    J = tuple(i for i in range(A.n) if x[i] > 1e-7)  # nonempty: some x_i is 1
    y0 = x[list(J)]
    y0 = y0 / np.linalg.norm(y0)
    return {J: [(y0, float(res.value))]}


# ---------------------------------------------------------------------------
# the one enumeration and the public operations built on it
# ---------------------------------------------------------------------------


def _enumerate(
    A: Tensor, system: str, check: str, cfg: RunConfig, full_only: bool = False
) -> list[EigenRecord]:
    """Certified records of one system: interior candidates of every support
    (seeded for the Pareto variant where completeness is heuristic),
    zero-extended, checked by :func:`_verify`'s ``check``, deduped.  They are
    found for :func:`tcpkit.tensor.at_unit_scale`'s ``A / 2^e``, so the
    absolute tolerances see unit scale, and scaled by 2^e."""
    e, A = at_unit_scale(A)
    seeded = check == "pareto" and _completeness(A) == "heuristic"
    seeds = _variational_seed(A, system, cfg) if seeded else {}
    found = (
        _verify(A, J, lam, y, system, check)
        for J, cands in _interior_candidates(A, system, cfg, seeds, full_only).items()
        for lam, y in cands
    )
    records = _dedupe_records([rec for rec in found if rec is not None])
    return [replace(r, value=float(np.ldexp(r.value, e)), residual=float(np.ldexp(r.residual, e)))
            for r in records]


def _full_support(A: Tensor, system: str, kind: str, cfg: RunConfig) -> list[EigenRecord]:
    """The full support's orthant records, relabelled ``kind``, positive in
    every component: Newton roots above ``INTERIOR_FLOOR``, matrix vectors
    above ``POSITIVITY_FLOOR`` at sum 1, or ``[1.0]``.  A smaller support's
    record is zero there, so it can neither be one nor dedupe one away."""
    return [replace(r, kind=kind) for r in _enumerate(A, system, "orthant", cfg, full_only=True)]


def h_plus_eigenpairs(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    """Orthant eigenpairs: per-support interior solves whose zero-extension
    satisfies the full eigen system (off-support rows must vanish)."""
    return _enumerate(A, "H", "orthant", cfg)


def z_plus_eigenpairs(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    return _enumerate(A, "Z", "orthant", cfg)


def h_plusplus_eigenpairs(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    return _full_support(A, "H", "h_plusplus", cfg)


def z_plusplus_eigenpairs(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    return _full_support(A, "Z", "z_plusplus", cfg)


def pareto_h_eigenvalues(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    """Pareto variant: off-support rows only need to be nonnegative."""
    return _enumerate(A, "H", "pareto", cfg)


def pareto_z_eigenvalues(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    if A.m % 2 != 0:
        raise ValueError("the Pareto Z variant is only defined here for even order")
    return _enumerate(A, "Z", "pareto", cfg)


def _delta(A: Tensor, system: str, cfg: RunConfig) -> DeltaResult:
    records = _enumerate(A, system, "delta", cfg)
    if not records:
        raise RuntimeError("no eigenvalue found for any principal sub-tensor")
    return DeltaResult(
        value=min(r.value for r in records),
        heuristic=_completeness(A) == "heuristic",
        records=records,
    )


def delta_h_plus(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> DeltaResult:
    """Smallest interior eigenvalue found over all principal sub-tensors.

    Every interior pair on a support J is an orthant eigenpair of the
    sub-tensor on J itself, and conversely every sub-tensor's orthant
    eigenvalue arises from an interior solve on some smaller support, so
    the minimum over interior candidates equals the minimum over
    sub-tensors (singletons always contribute their diagonal entry).
    """
    return _delta(A, "H", cfg)


def delta_z_plus(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> DeltaResult:
    if A.m % 2 != 0:
        raise ValueError("this minimum is only taken for even order")
    return _delta(A, "Z", cfg)


# spectrum kind -> (function giving its records, SpectrumSummary field of their minimum)
_SPECTRUM = {
    "h_plus": (h_plus_eigenpairs, None),
    "h_plusplus": (h_plusplus_eigenpairs, None),
    "z_plus": (z_plus_eigenpairs, None),
    "z_plusplus": (z_plusplus_eigenpairs, None),
    "pareto_h": (pareto_h_eigenvalues, "lambda_min_pareto_h"),
    "pareto_z": (pareto_z_eigenvalues, "mu_min_pareto_z"),
    "delta_h_plus": (delta_h_plus, "delta_h_plus"),
    "delta_z_plus": (delta_z_plus, "delta_z_plus"),
}
EIGEN_KINDS = tuple(_SPECTRUM)  # every kind that ``spectrum`` accepts


def spectrum(A: Tensor, kind: str, cfg: RunConfig = DEFAULT_CONFIG) -> SpectrumSummary:
    """Assemble the record list plus derived minima for one eigen variant."""
    if kind not in _SPECTRUM:
        raise ValueError(f"unknown eigen kind {kind!r}")
    fn, minimum = _SPECTRUM[kind]
    out = fn(A, cfg)
    records = out.records if isinstance(out, DeltaResult) else out
    summary = SpectrumSummary(records=records, completeness=_completeness(A))
    if minimum is not None and records:
        setattr(summary, minimum, min(r.value for r in records))
    return summary

"""Eigenpair enumeration over the nonnegative orthant.

Every variant is one enumeration by support (:func:`_enumerate`): a vector
carried by a support J is strictly positive there, so candidates come from
solving the eigen system of the principal sub-tensor on J with a strictly
positive unknown, then zero-extending and checking the remaining rows.
Two switches pick the variant:

- the system: ``"H"`` solves ``A x^(m-1) = lam x^[m-1]`` and scales its
  records to ``max|x| = 1``; ``"Z"`` solves ``A x^(m-1) = lam x`` with
  ``||x||_2 = 1`` (``_SYSTEMS`` names each system's record kinds and
  normalization);
- ``pareto``: equality off the support gives the orthant eigenpairs
  (``h_plus`` / ``z_plus``), a one-sided inequality the Pareto variants.

``*plusplus`` solves only the full support and keeps its orthant records,
and ``delta_*`` takes the least interior eigenvalue of every principal
sub-tensor; its records (kind ``delta_h_plus`` / ``delta_z_plus``) are
zero-extended, with the residual taken on the support's rows.
:func:`spectrum` reads one table from each kind to its function and the
summary field of its minimum.

Per-support solving is exact for matrices and closed form on singleton
supports.  A matrix support takes a dense eigensolver; a one-dimensional
eigenspace has a strictly positive vector exactly when its basis vector has
one sign, which is checked in closed form, and only a repeated eigenvalue's
eigenspace (or a near-zero component, see :func:`_positive_eigvec`) needs a
small LP, the one place scipy is imported, at call time.  Everything else
is damped Newton from many random positive starts, so completeness is
heuristic and flagged as such.
For symmetric tensors the minimum Pareto value is additionally seeded from
a direct minimization of the full contraction over the feasible cone
(its KKT points are exactly the Pareto eigenpairs), which makes the
minimum — the quantity downstream bounds divide by — reliable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import CLUSTER_TOL, DEFAULT_CONFIG, POSITIVITY_FLOOR, RESIDUAL_TOL, RunConfig
# damped_newton is unused here but stays bound: perfbench's tracer expects it
from .optimize import (  # noqa: F401
    damped_newton, first_of_clusters, minimize_nonneg_sphere, newton_lanes,
)
from .tensor import (
    JsonRecord,
    Tensor,
    contract_m1,
    contract_m1_batch,
    lane_maps,
    principal_subtensor,
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
    out: list[float] = []
    for v in sorted(r.value for r in records):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# per-support interior solves: strictly positive y with
#   H:  A_J y^(m-1) = lam * y^[m-1]      Z:  A_J y^(m-1) = lam * y, ||y||_2 = 1
# ---------------------------------------------------------------------------


POSITIVE_BAND = 1e-6  # closed-form smallest components at or below this go to the LP


def _positive_eigvec(basis: np.ndarray) -> np.ndarray | None:
    """A strictly positive unit vector in the column span, or None.

    A one-column basis ``b`` has a single candidate, ``b / sum(b)``, which
    is what the LP below returns for it bit for bit (HiGHS presolve solves
    the one equality as ``c = 1 / sum(b)``).  So that case is closed form,
    except in a band: when the smallest component of ``b / sum(b)`` is
    positive but at most ``POSITIVE_BAND``, HiGHS's feasibility tolerance
    can reject the vector, and the LP keeps the verdict.  Bases of two or
    more columns (repeated eigenvalues) always take the LP.
    """
    if basis.shape[1] == 1:
        total = basis.sum(axis=0)[0]
        if total == 0.0:
            return None
        y = basis[:, 0] * (1.0 / total)
        smallest = float(np.min(y))
        if smallest <= 0.0:
            return None
        if smallest > POSITIVE_BAND:
            return y / np.linalg.norm(y)
    return _lp_positive_vector(basis)


def _lp_positive_vector(basis: np.ndarray) -> np.ndarray | None:
    """A strictly positive unit vector in the column span, found by a small
    LP that maximizes the smallest component over ``sum = 1``.  scipy is
    imported here, so ``import tcpkit`` does not load it."""
    from scipy.optimize import linprog

    r, k = basis.shape
    if k == 0:
        return None
    c = np.zeros(k + 1)
    c[-1] = -1.0  # maximize the smallest component
    A_ub = np.hstack([-basis, np.ones((r, 1))])
    b_ub = np.zeros(r)
    A_eq = np.hstack([basis.sum(axis=0)[None, :], np.zeros((1, 1))])
    b_eq = np.array([1.0])
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=[(None, None)] * (k + 1), method="highs",
    )
    if not res.success or res.x[-1] <= 1e-10:
        return None
    y = basis @ res.x[:k]
    if np.min(y) <= 0:
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
    """Multi-start damped Newton on the support systems of one size, every
    start of every support as one lane array; y normalized to the 2-sphere
    inside the iteration, strict positivity enforced afterwards.  Returns
    one candidate list per support, in group order; each support keeps its
    own start stream, certificate and clustering."""
    r, m = len(group[0]), A.m
    subs = [principal_subtensor(A, J) for J in group]
    starts = []
    for J, sub in zip(group, subs):
        rng = cfg.substream("eigen", system, str(J))
        pairs = list(seeds.get(J, []))
        uniform = np.ones(r) / np.sqrt(r)
        pairs.append((uniform, _rayleigh(sub, uniform, system)))
        raw = rng.uniform(0.1, 1.0, size=(cfg.budget(NEWTON_STARTS), r))
        for row in raw:
            y0 = row / np.linalg.norm(row)
            pairs.append((y0, _rayleigh(sub, y0, system)))
        starts.append(np.array([np.append(y0, lam0) for y0, lam0 in pairs]))
    owner = np.repeat(np.arange(len(group)), [len(Z0) for Z0 in starts])
    contract, jacobian = lane_maps(subs, owner)

    def residual(Z: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        Y, lam = Z[..., :r], Z[..., r:]
        eig_part = contract(Y, lanes) - lam * _rhs(system, Y, m)
        return np.concatenate([eig_part, np.sum(Y * Y, axis=-1, keepdims=True) - 1.0], axis=-1)

    def jac(Z: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        Y, lam = Z[:, :r], Z[:, r]
        out = np.zeros((Z.shape[0], r + 1, r + 1))
        out[:, :r, :r] = jacobian(Y, lanes)
        diag = np.arange(r)
        if system == "H":
            out[:, diag, diag] -= lam[:, None] * (m - 1) * Y ** (m - 2)
            out[:, :r, r] = -(Y ** (m - 1))
        else:
            out[:, diag, diag] -= lam[:, None]
            out[:, :r, r] = -Y
        out[:, r, :r] = 2.0 * Y
        return out

    Z, ok = newton_lanes(residual, jac, np.vstack(starts))
    Y, lam = Z[:, :r], Z[:, r]
    nrm = np.linalg.norm(Y, axis=1)
    # roots with dust components are boundary solutions of this support;
    # their true (smaller) support enumerates them separately
    lanes = np.flatnonzero(
        ok & (np.min(Y, axis=1) > INTERIOR_FLOOR) & (np.abs(nrm - 1.0) <= 1e-6)
    )
    Y, lam = Y[lanes] / nrm[lanes, None], lam[lanes]
    if system == "Z":
        lam = np.sum(Y * contract(Y[:, None, :], lanes)[:, 0], axis=1)
    resid = np.linalg.norm(residual(np.column_stack([Y, lam])[:, None, :], lanes)[:, 0], axis=1)
    good = resid <= 1e-9 * (1.0 + np.abs(lam))
    return [
        _cluster_pairs([(float(l), y) for l, y in zip(lam[mine], Y[mine])])
        for mine in (good & (owner[lanes] == s) for s in range(len(group)))
    ]


def _rhs(system: str, x: np.ndarray, m: int) -> np.ndarray:
    """What lam scales in the eigen system: x^[m-1] for H, x for Z."""
    return x ** (m - 1) if system == "H" else x


def _rayleigh(A_sub: Tensor, y: np.ndarray, system: str) -> float:
    core = contract_m1(A_sub, y)
    if system == "H":
        denom = float(np.sum(y**A_sub.m))
        return float(y @ core) / denom if denom > 0 else 0.0
    return float(y @ core)


def _cluster_pairs(pairs: list[tuple[float, np.ndarray]]) -> list[tuple[float, np.ndarray]]:
    pairs = sorted(pairs, key=lambda p: (p[0], tuple(p[1])))
    return [pairs[i] for i in first_of_clusters([np.append(l, y) for l, y in pairs], CLUSTER_TOL)]


def _interior_candidates(
    A: Tensor, system: str, cfg: RunConfig,
    extra_seeds: dict[tuple[int, ...], list[tuple[np.ndarray, float]]] | None = None,
    full_only: bool = False,
) -> dict[tuple[int, ...], list[tuple[float, np.ndarray]]]:
    """Interior (strictly positive, 2-normalized) eigenpairs of A restricted
    to every support J (only the full support with ``full_only``), in
    support order.

    Singletons are closed form and matrices exact (with a Newton run on a
    seeded support); above order 2 the supports of one size share one
    Newton lane array.
    """
    extra_seeds = extra_seeds or {}
    out: dict[tuple[int, ...], list[tuple[float, np.ndarray]]] = {}
    for group in [[tuple(range(A.n))]] if full_only else supports_by_size(A.n):
        if len(group[0]) == 1:
            for J in group:
                out[J] = [(float(A.data[tuple([J[0]] * A.m)]), np.array([1.0]))]
        elif A.m == 2:
            for J in group:
                exact = _matrix_support_candidates(principal_subtensor(A, J).data)
                if extra_seeds.get(J):
                    newton = _newton_candidates(A, [J], system, cfg, extra_seeds)[0]
                    exact = _cluster_pairs(exact + newton)
                out[J] = exact
        else:
            out.update(zip(group, _newton_candidates(A, group, system, cfg, extra_seeds)))
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
    gap = rows - lam * _rhs(system, x, A.m)
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
# high-quality Newton seed on the minimizer's support.
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
    J = tuple(i for i in range(A.n) if x[i] > 1e-7)
    if not J:
        return {}
    y0 = x[list(J)]
    y0 = y0 / np.linalg.norm(y0)
    return {J: [(y0, float(res.value))]}


# ---------------------------------------------------------------------------
# the one enumeration and the public operations built on it
# ---------------------------------------------------------------------------


def _enumerate(
    A: Tensor, system: str, pareto: bool, cfg: RunConfig, full_only: bool = False
) -> list[EigenRecord]:
    """Certified records of one system: interior candidates of every support
    (variationally seeded for the Pareto variant), zero-extended, checked
    off the support by equality (orthant) or one-sided (Pareto), deduped."""
    seeds = _variational_seed(A, system, cfg) if pareto else None
    found = (
        _verify(A, J, lam, y, system, "pareto" if pareto else "orthant")
        for J, cands in _interior_candidates(A, system, cfg, seeds, full_only).items()
        for lam, y in cands
    )
    return _dedupe_records([rec for rec in found if rec is not None])


def _full_support(A: Tensor, system: str, kind: str, cfg: RunConfig) -> list[EigenRecord]:
    """The full support's orthant records with every component positive,
    relabelled ``kind``.  A smaller support's record is zero where these are
    positive, so it can neither be one nor dedupe one away: only the full
    support is solved."""
    return [
        replace(r, kind=kind)
        for r in _enumerate(A, system, False, cfg, full_only=True)
        if np.min(r.vector) > POSITIVITY_FLOOR
    ]


def h_plus_eigenpairs(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    """Orthant eigenpairs: per-support interior solves whose zero-extension
    satisfies the full eigen system (off-support rows must vanish)."""
    return _enumerate(A, "H", False, cfg)


def z_plus_eigenpairs(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    return _enumerate(A, "Z", False, cfg)


def h_plusplus_eigenpairs(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    return _full_support(A, "H", "h_plusplus", cfg)


def z_plusplus_eigenpairs(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    return _full_support(A, "Z", "z_plusplus", cfg)


def pareto_h_eigenvalues(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    """Pareto variant: off-support rows only need to be nonnegative."""
    return _enumerate(A, "H", True, cfg)


def pareto_z_eigenvalues(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> list[EigenRecord]:
    if A.m % 2 != 0:
        raise ValueError("the Pareto Z variant is only defined here for even order")
    return _enumerate(A, "Z", True, cfg)


def _delta(A: Tensor, system: str, cfg: RunConfig) -> DeltaResult:
    found = (
        _verify(A, J, lam, y, system, "delta")
        for J, cands in _interior_candidates(A, system, cfg).items()
        for lam, y in cands
    )
    records = [rec for rec in found if rec is not None]
    if not records:
        raise RuntimeError("no eigenvalue found for any principal sub-tensor")
    records.sort(key=lambda r: (r.value, r.support, tuple(r.vector)))
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
EIGEN_KINDS = tuple(kind for kind in _SPECTRUM if not kind.startswith("delta_"))


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

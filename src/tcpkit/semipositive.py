"""Semi-positivity classification through the min-max activity margin.

The margin of a tensor is the minimum, over the nonnegative unit
infinity-sphere, of the largest coordinate activity ``x_i * (A x^(m-1))_i``.
It is positive exactly for strictly semi-positive tensors, nonnegative for
semi-positive ones, and its sign therefore drives :func:`classify`.  For
symmetric tensors (strict) semi-positivity coincides with (strict)
copositivity, which :func:`is_copositive` checks directly by minimizing
the full contraction over the same feasible set.  Every search runs on
:func:`tcpkit.tensor.at_unit_scale`'s ``A / 2^e``, and its value, of degree
1 in A, maps back by ``2^e`` before any ``tol`` comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, DEFAULT_CONFIG
from .optimize import SphereMinimum, minimize_nonneg_sphere
from .tensor import (
    JsonRecord, Tensor, at_unit_scale, contract_m1_batch, principal_subtensor, supports_by_size, zero_extend,
)

__all__ = [
    "BetaResult",
    "Classification",
    "STRICTLY_SEMI_POSITIVE",
    "SEMI_POSITIVE_ONLY",
    "NOT_SEMI_POSITIVE",
    "UNDETERMINED",
    "beta",
    "classify",
    "is_copositive",
]

STRICTLY_SEMI_POSITIVE = "strictly_semi_positive"
SEMI_POSITIVE_ONLY = "semi_positive_only"
NOT_SEMI_POSITIVE = "not_semi_positive"
UNDETERMINED = "undetermined"


BetaResult = SphereMinimum


@dataclass
class Classification(JsonRecord):
    verdict: str
    beta: BetaResult
    counterexample: np.ndarray | None = None


def _activity_objective(A: Tensor):
    def batch(X: np.ndarray) -> np.ndarray:
        return np.max(X * contract_m1_batch(A, X), axis=1)

    return batch


def beta(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> BetaResult:
    """Minimize the largest coordinate activity over {x >= 0, ||x||_inf = 1}.

    Each of the n faces gets a full grid (resolution picked by dimension)
    plus pattern-search refinement from the best grid points and 16 random
    starts; the reported value is the objective re-evaluated at the winning
    feasible point.
    """
    e, unit = at_unit_scale(A)
    res = minimize_nonneg_sphere(_activity_objective(unit), A.n, cfg, "beta")
    return replace(res, value=float(np.ldexp(res.value, e)))


def _violation_search(A: Tensor, cfg: RunConfig) -> tuple[float, np.ndarray | None]:
    """Search for x >= 0 whose every active coordinate has a negative row.

    Per support J the row maximum ``max_{k in J} (A x^(m-1))_k`` is
    minimized over vectors carried by J; any value below -tol certifies a
    witness (coordinates of x that sit at zero only make the row maximum
    larger, never smaller, so the face closure is safe to search).
    """
    e, unit = at_unit_scale(A)
    best_val = np.inf
    best_x: np.ndarray | None = None
    for J in itertools.chain.from_iterable(supports_by_size(A.n)):
        sub = principal_subtensor(unit, J)

        def rows_max(Y: np.ndarray, sub=sub) -> np.ndarray:
            return np.max(contract_m1_batch(sub, Y), axis=1)

        res = minimize_nonneg_sphere(rows_max, sub.n, cfg, f"violation:{J}")
        if res.value < best_val:
            best_val, best_x = res.value, zero_extend(res.argmin, J, A.n)
    return float(np.ldexp(best_val, e)), best_x


def classify(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> Classification:
    """Three-way verdict driven by the sign of the activity margin.

    A margin above tol is conclusive for strict semi-positivity; one below
    -tol makes the margin's own argmin a witness (all its coordinates are
    then active with activity below -tol).  Near zero, a per-support search
    looks for a vector whose active rows are all below -tol; absent one,
    the tensor is reported semi-positive only.  ``undetermined`` is kept
    for near-misses the resolution cannot separate from zero.
    """
    b = beta(A, cfg)
    if b.value > cfg.tol:
        return Classification(STRICTLY_SEMI_POSITIVE, b)
    if b.value < -cfg.tol:
        return Classification(NOT_SEMI_POSITIVE, b, counterexample=b.argmin)
    val, witness = _violation_search(A, cfg)
    if val < -cfg.tol:
        return Classification(NOT_SEMI_POSITIVE, b, counterexample=witness)
    if val < -cfg.tol * 0.1:
        return Classification(UNDETERMINED, b)
    return Classification(SEMI_POSITIVE_ONLY, b)


def is_copositive(A: Tensor, strict: bool = False, cfg: RunConfig = DEFAULT_CONFIG) -> bool:
    """Minimize the full contraction over {x >= 0, ||x||_inf = 1}; symmetric only."""
    if not A.symmetric:
        raise ValueError("copositivity checks require a symmetric tensor")
    e, unit = at_unit_scale(A)

    def full_batch(X: np.ndarray) -> np.ndarray:
        return np.sum(X * contract_m1_batch(unit, X), axis=1)

    value = float(np.ldexp(minimize_nonneg_sphere(full_batch, A.n, cfg, "copositive").value, e))
    return value >= (cfg.tol if strict else -cfg.tol)

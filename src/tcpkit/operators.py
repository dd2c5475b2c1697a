"""Positively homogeneous contraction operators and their operator norms.

Two degree-1 homogeneous maps are derived from the degree-(m-1) polynomial
contraction: the 2-norm-compensated map ``x -> ||x||_2^(2-m) * A x^(m-1)``
(token ``"T"``), and, for even order, the componentwise odd-root map
``x -> (A x^(m-1))^[1/(m-1)]`` (token ``"F"``).  Their p-operator norms
admit closed-form upper bounds built from row absolute sums; exact values
are intractable in general, so :func:`estimate_norm` reports a certified
lower estimate obtained by multi-start ascent on the unit p-sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, DEFAULT_CONFIG
from .optimize import least_point, pattern_search_min
from .tensor import JsonRecord, Tensor, as_vector, contract_m1_batch

__all__ = [
    "OP_SCALED",
    "OP_ROOT",
    "NormReport",
    "apply_scaled",
    "apply_root",
    "apply_operator",
    "norm_bound",
    "estimate_norm",
]

OP_SCALED = "T"  # 2-norm-compensated contraction
OP_ROOT = "F"    # componentwise odd root of the contraction (even order only)

NORM_STARTS = 64  # random starts of one norm ascent


def apply_scaled(A: Tensor, x) -> np.ndarray:
    """``||x||_2^(2-m) * A x^(m-1)``, with 0 mapped to 0."""
    return _apply_batch(A, OP_SCALED, as_vector(x, A.n)[None, :])[0]


def apply_root(A: Tensor, x) -> np.ndarray:
    """Componentwise (m-1)-th root of the contraction; requires even order."""
    if A.m % 2 != 0:
        raise ValueError("the root operator needs an even order (odd real roots)")
    return _apply_batch(A, OP_ROOT, as_vector(x, A.n)[None, :])[0]


def apply_operator(A: Tensor, op: str, x) -> np.ndarray:
    if op == OP_SCALED:
        return apply_scaled(A, x)
    if op == OP_ROOT:
        return apply_root(A, x)
    raise ValueError(f"unknown operator token {op!r}; expected 'T' or 'F'")


def _apply_batch(A: Tensor, op: str, X: np.ndarray) -> np.ndarray:
    """The operator ``op`` on every row of X; :func:`apply_scaled` and
    :func:`apply_root` are its one-row calls."""
    C = contract_m1_batch(A, X)
    if op == OP_SCALED:
        nrm = np.linalg.norm(X, axis=1)
        safe = np.where(nrm == 0.0, 1.0, nrm)
        out = safe[:, None] ** (2 - A.m) * C
        out[nrm == 0.0] = 0.0
        return out
    return np.sign(C) * np.abs(C) ** (1.0 / (A.m - 1))


def _check_p(p) -> float:
    p = float(p)
    if math.isinf(p) and p > 0:
        return math.inf
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return p


def norm_bound(A: Tensor, op: str, p) -> float:
    """Closed-form upper bound on the p-operator norm.

    Built from the row absolute sums r_i: for the scaled map, max_i r_i at
    p = inf and ``n^((m-2)/p) * (sum_i r_i^p)^(1/p)`` otherwise; for the
    root map (even order), ``(max_i r_i)^(1/(m-1))`` at p = inf and
    ``(sum_i r_i^(p/(m-1)))^(1/p)`` otherwise.
    """
    p = _check_p(p)
    if op not in (OP_SCALED, OP_ROOT):
        raise ValueError(f"unknown operator token {op!r}; expected 'T' or 'F'")
    if op == OP_ROOT and A.m % 2 != 0:
        raise ValueError("the root operator needs an even order")
    rows = A.row_abs_sums()
    m, n = A.m, A.n
    if op == OP_SCALED:
        if math.isinf(p):
            return float(rows.max())
        return float(n ** ((m - 2) / p) * (rows**p).sum() ** (1.0 / p))
    if math.isinf(p):
        return float(rows.max() ** (1.0 / (m - 1)))
    return float((rows ** (p / (m - 1))).sum() ** (1.0 / p))


@dataclass
class NormReport(JsonRecord):
    """A certified lower estimate of an operator norm next to its upper bound."""

    op: str
    p: float
    empirical_norm: float
    closed_form_bound: float
    witness: np.ndarray


def _pnorm_rows(X: np.ndarray, p: float) -> np.ndarray:
    """p-norms along the last axis: one per row of a batch, or of one vector."""
    if math.isinf(p):
        return np.abs(X).max(axis=-1)
    return (np.abs(X) ** p).sum(axis=-1) ** (1.0 / p)


def estimate_norm(
    A: Tensor,
    op: str,
    p,
    budget: int | None = None,
    cfg: RunConfig = DEFAULT_CONFIG,
) -> NormReport:
    """Lower estimate of the p-operator norm by multi-start pattern ascent.

    Starts at every signed coordinate vertex plus ``budget`` random points
    of the unit p-sphere (default ``cfg.budget(NORM_STARTS)``).  Every evaluation
    happens at an exactly renormalized feasible point, so the maximum seen
    is a valid lower estimate of the true norm; it is never claimed exact.
    Ties within 1e-12 go to the lexicographically smallest point
    (:func:`tcpkit.optimize.least_point`); the witness is signed so that its
    largest-magnitude component is positive.
    """
    p = _check_p(p)
    bound = norm_bound(A, op, p)  # validates op/order as a side effect
    n = A.n
    starts = [e for i in range(n) for e in (np.eye(n)[i], -np.eye(n)[i])]
    n_random = cfg.budget(NORM_STARTS) if budget is None else int(budget)
    rng = cfg.substream("norm", op, p, n_random)
    raw = rng.standard_normal(size=(n_random, n))

    def project(P: np.ndarray) -> np.ndarray:
        nrm = _pnorm_rows(P, p)
        bad = nrm < 1e-12
        nrm = np.where(bad, 1.0, nrm)
        Q = P / nrm[:, None]
        if np.any(bad):
            Q[bad] = np.eye(n)[0]
        return Q

    starts.extend(project(raw))

    def neg_obj(X: np.ndarray) -> np.ndarray:
        return -_pnorm_rows(_apply_batch(A, op, X), p)

    vals, X = pattern_search_min(neg_obj, np.vstack(starts), project)
    best = least_point(vals, X, 1e-12)
    best_val, best_x = -vals[best], X[best]
    # op(-x) = +-op(x) exactly, so -x has the same norm to the bit: report the
    # sign whose largest-magnitude component is positive, not rounding's pick
    if best_x[np.argmax(np.abs(best_x))] < 0:
        best_x = -best_x
    return NormReport(
        op=op, p=p, empirical_norm=float(best_val),
        closed_form_bound=float(bound), witness=best_x,
    )

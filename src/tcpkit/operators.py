"""Positively homogeneous contraction operators and their operator norms.

Two degree-1 homogeneous maps are derived from the degree-(m-1) polynomial
contraction: the 2-norm-compensated map ``x -> ||x||_2^(2-m) * A x^(m-1)``
(token ``"T"``), and, for even order, the componentwise odd-root map
``x -> (A x^(m-1))^[1/(m-1)]`` (token ``"F"``).  Their p-operator norms
admit closed-form upper bounds built from row absolute sums.  At order 2
both are ``x -> A x`` and :func:`estimate_norm` is exact at p in {1, 2,
inf}; otherwise it reports a lower estimate by multi-start ascent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, DEFAULT_CONFIG
from .optimize import least_point, pattern_search_min
from .tensor import JsonRecord, Tensor, as_vector, at_unit_scale, contract_m1_batch, jacobian_m1_batch

__all__ = [
    "OP_SCALED",
    "OP_ROOT",
    "NormReport",
    "apply_operator",
    "norm_bound",
    "estimate_norm",
]

OP_SCALED = "T"  # 2-norm-compensated contraction
OP_ROOT = "F"    # componentwise odd root of the contraction (even order only)

NORM_STARTS = 64  # random starts of one norm ascent
ASCENT_ITERS = 60  # power-ascent steps of T at p = 2 before it may stop
ASCENT_MAX_ITERS = 300  # and the most it takes


def _check_op(A: Tensor, op: str) -> None:
    if op not in (OP_SCALED, OP_ROOT):
        raise ValueError(f"unknown operator token {op!r}; expected 'T' or 'F'")
    if op == OP_ROOT and A.m % 2 != 0:
        raise ValueError("the root operator needs an even order")


def apply_operator(A: Tensor, op: str, x) -> np.ndarray:
    """The operator ``op`` (module docstring) at x, with 0 mapped to 0."""
    _check_op(A, op)
    return _apply_batch(A, op, as_vector(x, A.n)[None, :])[0]


def _apply_batch(A: Tensor, op: str, X: np.ndarray, C: np.ndarray | None = None) -> np.ndarray:
    """The operator ``op``, already checked, on every row of X (from their
    contraction C, if given); :func:`apply_operator` is its one-row call."""
    C = contract_m1_batch(A, X) if C is None else C
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
    _check_op(A, op)
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
    """A lower estimate of an operator norm next to its closed-form upper bound."""

    op: str
    p: float
    empirical_norm: float
    closed_form_bound: float
    witness: np.ndarray


def _pnorm_rows(X: np.ndarray, p: float) -> np.ndarray:
    """p-norms along the last axis: one per row of a batch, or of one vector,
    whose root the array loop takes too (numpy's scalar ``**`` rounds apart)."""
    if math.isinf(p):
        return np.abs(X).max(axis=-1)
    return ((np.abs(X) ** p).sum(axis=-1, keepdims=True) ** (1.0 / p))[..., 0]


def _power_ascent(A: Tensor, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x <- J(x)^T C(x) / ||J(x)^T C(x)||_2``, whose fixed points are the KKT
    points of ||T x||_2 on the unit 2-sphere, on every row of X; a lane whose
    step is 0 stays.  Past ASCENT_ITERS steps, the first step that grows the
    best value by at most 1e-15 relative ends it.  Returns each lane's best
    value, negated, and where it was seen."""
    best_v, best_X, top = np.full(len(X), -np.inf), X.copy(), -np.inf
    for it in range(ASCENT_MAX_ITERS + 1):
        C = contract_m1_batch(A, X)
        v = _pnorm_rows(_apply_batch(A, OP_SCALED, X, C), 2.0)
        up = v > best_v
        best_v[up], best_X[up] = v[up], X[up]
        if it == ASCENT_MAX_ITERS or (it >= ASCENT_ITERS and best_v.max() <= top * (1 + 1e-15)):
            return -best_v, best_X
        top = best_v.max()
        G = np.einsum("bij,bi->bj", jacobian_m1_batch(A, X), C)
        g = np.linalg.norm(G, axis=1, keepdims=True)
        ok = (g > 0) & (g < np.inf)
        X = np.where(ok, G / np.where(ok, g, 1.0), X)


def estimate_norm(
    A: Tensor,
    op: str,
    p,
    budget: int | None = None,
    cfg: RunConfig = DEFAULT_CONFIG,
) -> NormReport:
    """Lower estimate of the p-operator norm: its ratio at a feasible point.

    At order 2 and p in {1, 2, inf} it is exact, at a point that attains the
    norm, with no random start.  Otherwise it is heuristic: the best point
    of :func:`_power_ascent` (``T`` at p = 2) or of a pattern ascent, from
    every signed coordinate vertex plus ``budget`` random points of the unit
    p-sphere (default ``cfg.budget(NORM_STARTS)``).  Ties within 1e-12 go to
    the lexicographically smallest point (:func:`tcpkit.optimize.least_point`);
    the witness is signed so that its largest-magnitude component is positive.
    It searches :func:`tcpkit.tensor.at_unit_scale`'s ``A / 2^e``, e a multiple
    of m - 1, and maps ``T`` back by ``2^e`` and ``F`` by ``2^(e/(m-1))``, exactly.
    """
    p = _check_p(p)
    bound = norm_bound(A, op, p)  # validates op/order as a side effect
    e, A = at_unit_scale(A, A.m - 1)
    n = A.n

    def project(P: np.ndarray) -> np.ndarray:
        return P / _pnorm_rows(P, p)[:, None]  # a trial x + s e_j, s <= 0.25, has norm >= 0.75

    def neg_obj(X: np.ndarray) -> np.ndarray:
        return -_pnorm_rows(_apply_batch(A, op, X), p)

    if A.m == 2 and p in (1.0, 2.0, math.inf):
        M = A.data  # the norm is attained at a row's sign vector, an e_j or the top singular vector
        X = np.where(M < 0, -1.0, 1.0) if math.isinf(p) else np.eye(n) if p == 1.0 else np.linalg.svd(M)[2][:1]
        vals = neg_obj(X)
    else:
        n_random = cfg.budget(NORM_STARTS) if budget is None else int(budget)
        raw = cfg.substream("norm", op, p, n_random).standard_normal(size=(n_random, n))
        X0 = np.vstack([e for i in range(n) for e in (np.eye(n)[i], -np.eye(n)[i])] + list(project(raw)))
        if op == OP_SCALED and p == 2.0:
            vals, X = _power_ascent(A, X0)
        else:
            vals, X = pattern_search_min(neg_obj, X0, project)
    best = least_point(vals, X, 1e-12)
    best_val, best_x = -vals[best], X[best]
    # op(-x) = +-op(x) exactly, so -x has the same norm to the bit: report the
    # sign whose largest-magnitude component is positive, not rounding's pick
    if best_x[np.argmax(np.abs(best_x))] < 0:
        best_x = -best_x
    return NormReport(
        op=op, p=p, empirical_norm=float(np.ldexp(best_val, e if op == OP_SCALED else e // (A.m - 1))),
        closed_form_bound=float(bound), witness=best_x,
    )

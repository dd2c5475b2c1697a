"""Desk-scale complementarity solvers and independent solution certificates.

An instance pairs a tensor with an offset vector q; a solution is x >= 0
with w = q + A x^(m-1) >= 0 and x'w = 0.  Two routes are provided: exact
support enumeration (per support, solve the polynomial system on the
active coordinates and check the inactive rows) and a semismooth Newton
method on the Fischer-Burmeister residual
``Phi(x)_i = sqrt(x_i^2 + w_i^2) - x_i - w_i``, which vanishes exactly at
the solutions.  Both solve at unit scale, on ``q / ||q||_inf``, and map
their solutions back by positive homogeneity: the solutions for ``t q`` are
``t^(1/(m-1))`` times those for q.  Every returned solution is re-certified
by :func:`verify_solution` from scratch, relative to the instance's scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import CLUSTER_TOL, DEFAULT_CONFIG, POSITIVITY_FLOOR, RESIDUAL_TOL, RunConfig
from .optimize import damped_newton, first_of_clusters, newton_lanes
from .tensor import (
    JsonRecord,
    Tensor,
    TensorFormatError,
    _real,
    as_vector,
    contract_m1,
    contract_m1_batch,
    jacobian_m1,
    jacobian_m1_batch,
    lane_maps,
    pos_part,
    power_component,
    principal_subtensor,
    supports_by_size,
    tensor_from_dict,
    tensor_to_dict,
    zero_extend,
)

__all__ = [
    "TcpInstance",
    "TcpSolution",
    "ResidualRecord",
    "NonConvergenceError",
    "verify_solution",
    "solve_enumeration",
    "solve_iterative",
]

NEWTON_STARTS = 16             # random Newton starts per support
DUST_TOL = 1e-4                # zero out components below this when the result still certifies
SUPPORT_CAP = 6                # enumeration refuses larger dimensions


class NonConvergenceError(RuntimeError):
    """No start of :func:`solve_iterative` reached a certified solution.

    ``best_merit`` is the least Fischer-Burmeister residual norm
    ``||Phi(x)||`` over the final points of every start, taken at unit
    scale (on ``q / ||q||_inf``), and ``iterations`` is the number of starts
    run.
    """

    def __init__(self, message: str, best_merit: float, iterations: int):
        super().__init__(message)
        self.best_merit = best_merit
        self.iterations = iterations


@dataclass
class TcpInstance:
    A: Tensor
    q: np.ndarray

    def __post_init__(self):
        self.q = as_vector(self.q, self.A.n)

    @classmethod
    def from_dict(cls, obj) -> "TcpInstance":
        if not isinstance(obj, dict) or "tensor" not in obj or "q" not in obj:
            raise TensorFormatError("instance object needs 'tensor' and 'q' fields")
        A = tensor_from_dict(obj["tensor"])
        try:
            if not isinstance(obj["q"], list):
                raise TypeError("q is not a list")
            q = np.asarray([_real(v) for v in obj["q"]], dtype=float)
        except (TypeError, ValueError) as exc:
            raise TensorFormatError("'q' must be a list of reals") from exc
        if q.size != A.n:
            raise TensorFormatError(f"q has length {q.size}, tensor dimension is {A.n}")
        return cls(A, q)

    def to_dict(self) -> dict:
        return {"tensor": tensor_to_dict(self.A), "q": [float(v) for v in self.q]}


@dataclass
class ResidualRecord(JsonRecord):
    primal: float  # min_i x_i
    dual: float    # min_i w_i
    compl: float   # |x'w|
    ok: bool


@dataclass
class TcpSolution(JsonRecord):
    x: np.ndarray
    w: np.ndarray
    support: tuple[int, ...]
    residuals: ResidualRecord
    method: str


def verify_solution(inst: TcpInstance, x, tol: float = RESIDUAL_TOL) -> ResidualRecord:
    """Recompute w and the three residuals from scratch; with the scale
    ``s = ||q||_inf + ||A x^(m-1)||_inf``, pass iff ``primal >= -tol ||x||_inf``,
    ``dual >= -tol s`` and ``compl <= tol s ||x||_inf``."""
    x = as_vector(x, inst.A.n)
    Ax = contract_m1(inst.A, x)
    w = inst.q + Ax
    primal = float(np.min(x))
    dual = float(np.min(w))
    compl = abs(float(x @ w))
    size = float(np.max(np.abs(x)))
    s = float(np.max(np.abs(inst.q))) + float(np.max(np.abs(Ax)))
    ok = primal >= -tol * size and dual >= -tol * s and compl <= tol * s * size
    return ResidualRecord(primal, dual, compl, ok)


def _make_solution(inst: TcpInstance, x: np.ndarray, method: str) -> TcpSolution | None:
    x = np.maximum(x, 0.0)
    # Newton stalls on boundary roots (x_i^(m-1) = 0) leave dust components;
    # canonicalize to the zeroed vector whenever that still certifies, so the
    # same solution is not double counted across neighboring supports.
    dusted = np.where(x > DUST_TOL, x, 0.0)
    if not np.array_equal(dusted, x) and verify_solution(inst, dusted, RESIDUAL_TOL).ok:
        x = dusted
    record = verify_solution(inst, x, RESIDUAL_TOL)
    if not record.ok:
        return None
    support = tuple(i for i in range(inst.A.n) if x[i] > POSITIVITY_FLOOR)
    w = inst.q + contract_m1(inst.A, x)
    return TcpSolution(x=x, w=w, support=support, residuals=record, method=method)


def _unit_scale(inst: TcpInstance) -> tuple[TcpInstance, float]:
    """The instance at ``q / ||q||_inf`` (q = 0 as it is) and the factor
    ``||q||_inf^(1/(m-1))`` that maps its solutions to those of ``inst``."""
    t = float(np.max(np.abs(inst.q))) or 1.0
    return TcpInstance(inst.A, inst.q / t), t ** (1.0 / (inst.A.m - 1))


def _at_scale(inst: TcpInstance, sol: TcpSolution | None, c: float) -> TcpSolution | None:
    """A solution of the unit-scale instance times c, recertified on ``inst``."""
    if sol is None:
        return None
    x = sol.x * c
    record = verify_solution(inst, x)
    return replace(sol, x=x, w=inst.q + contract_m1(inst.A, x), residuals=record) if record.ok else None


def _linear_root(inst: TcpInstance, J: tuple[int, ...]) -> list[np.ndarray]:
    """The strictly positive solution of the order-2 active system, if any."""
    sub = principal_subtensor(inst.A, J)
    qJ = inst.q[list(J)]
    try:
        y = np.linalg.solve(sub.data, -qJ)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(sub.data, -qJ, rcond=None)
    if float(np.max(np.abs(sub.data @ y + qJ))) > 1e-9 * (1.0 + float(np.abs(qJ).max(initial=0.0))):
        return []
    return [y] if np.min(y) > POSITIVITY_FLOOR else []


def _support_roots(
    inst: TcpInstance, group: list[tuple[int, ...]], cfg: RunConfig
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Strictly positive roots of the active systems A_J y^(m-1) = -q_J of
    the supports J of one size, as (J, y) pairs in support order.

    Above order 2 a singleton {j} has the closed-form root
    ``y = (-q_j / a_{j..j})^(1/(m-1))`` when that ratio is positive, and
    none otherwise; a zero diagonal with ``q_j = 0`` (a continuum of roots,
    never the case for a strictly semi-positive tensor) is not enumerated.
    The starts of every larger support run as one Newton lane array; each
    support keeps its own start stream, certificate and clustering.
    """
    m = inst.A.m
    if m == 2:
        return [(J, y) for J in group for y in _linear_root(inst, J)]
    r = len(group[0])
    if r == 1:
        d, q = inst.A.diagonal(), inst.q
        return [((j,), np.array([(-q[j] / d[j]) ** (1.0 / (m - 1))]))
                for (j,) in group if d[j] != 0.0 and -q[j] / d[j] > 0.0]
    Q = np.stack([inst.q[list(J)] for J in group])
    starts = []
    for J, qJ in zip(group, Q):
        rng = cfg.substream("tcp", tuple(J))
        Y0 = rng.uniform(0.1, 1.0, size=(cfg.budget(NEWTON_STARTS), r))
        heuristic = power_component(pos_part(-qJ), 1.0 / (m - 1))
        starts.append(np.vstack([heuristic, Y0]) if np.min(heuristic) > 0 else Y0)
    owner = np.repeat(np.arange(len(group)), [len(Y0) for Y0 in starts])
    contract, jac = lane_maps([principal_subtensor(inst.A, J) for J in group], owner)

    def residual(Y: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return contract(Y, lanes) + Q[owner[lanes]][:, None, :]

    Y, ok = newton_lanes(residual, jac, np.vstack(starts))
    lanes = np.flatnonzero(ok & (np.min(Y, axis=1) > POSITIVITY_FLOOR))
    scale = 1.0 + np.abs(Q).max(axis=1)
    resid = np.linalg.norm(residual(Y[lanes][:, None, :], lanes)[:, 0], axis=1)
    lanes = lanes[resid <= 1e-9 * scale[owner[lanes]]]
    roots: list[tuple[tuple[int, ...], np.ndarray]] = []
    for s, J in enumerate(group):
        found = Y[lanes[owner[lanes] == s]]
        roots.extend((J, found[i]) for i in first_of_clusters(found, CLUSTER_TOL))
    return roots


def solve_enumeration(inst: TcpInstance, cfg: RunConfig = DEFAULT_CONFIG) -> list[TcpSolution]:
    """All certified solutions found by enumerating active supports.

    For every support the active polynomial system is solved (linear solve
    for matrices, multi-start Newton otherwise); interior roots are
    zero-extended and kept when the inactive rows stay nonnegative.  An
    empty list is legitimate for tensors that are not strictly
    semi-positive; for strictly semi-positive ones it indicates a missed
    solution and triggers a warning, not an error.  The search runs at
    unit scale, and each solution is certified again at the caller's.
    """
    n = inst.A.n
    if n > SUPPORT_CAP:
        raise ValueError(
            f"enumeration is capped at dimension {SUPPORT_CAP}, instance has {n}"
        )
    unit, c = _unit_scale(inst)
    solutions: list[TcpSolution] = []
    zero = _make_solution(unit, np.zeros(n), "enumeration")
    if zero is not None:
        solutions.append(zero)
    for group in supports_by_size(n):
        for J, y in _support_roots(unit, group, cfg):
            sol = _make_solution(unit, zero_extend(y, J, n), "enumeration")
            if sol is not None:
                solutions.append(sol)
    solutions.sort(key=lambda s: (float(np.max(np.abs(s.x))), tuple(s.x)))
    scaled = (_at_scale(inst, solutions[i], c)
              for i in first_of_clusters([s.x for s in solutions], CLUSTER_TOL))
    deduped = [sol for sol in scaled if sol is not None]
    if not deduped:
        warnings.warn(
            "enumeration found no solution; for a strictly semi-positive tensor "
            "this means the search missed one",
            stacklevel=2,
        )
    return deduped


# cfg is unused; it stays because perfbench/test_checker.py passes one
def _polish_active_set(inst: TcpInstance, x: np.ndarray, cfg: RunConfig) -> TcpSolution | None:
    """Solve the support system suggested by the iterate's active pattern:
    its components above 1e-6, then, if that fails, only those of them
    whose row ``w_i`` is not positive (a positive row asks its component
    to leave the support)."""
    n = inst.A.n
    positive = x > 1e-6
    w = inst.q + contract_m1(inst.A, x)
    for J in dict.fromkeys([tuple(np.flatnonzero(positive)), tuple(np.flatnonzero(positive & (w <= 0.0)))]):
        if not J:
            return _make_solution(inst, np.zeros(n), "iterative")
        sub = principal_subtensor(inst.A, J)
        qJ = inst.q[list(J)]
        y, ok = damped_newton(lambda y: contract_m1(sub, y) + qJ, lambda y: jacobian_m1(sub, y), x[list(J)])
        if ok and np.min(y) > POSITIVITY_FLOOR:
            sol = _make_solution(inst, zero_extend(y, J, n), "iterative")
            if sol is not None:
                return sol
    return None


def solve_iterative(inst: TcpInstance, cfg: RunConfig = DEFAULT_CONFIG) -> TcpSolution:
    """Semismooth Newton on the Fischer-Burmeister residual ``Phi``.

    The generalized Jacobian is ``diag(x/rho - 1) + diag(w/rho - 1) J_w(x)``
    with ``rho = sqrt(x^2 + w^2)``, and ``1/sqrt(2) - 1`` in both places
    where ``rho = 0``.  The heuristic start ``pos_part(-q)^(1/(m-1))`` runs
    alone, then zero and six seeded draws as one lane array.  The first
    lane whose point certifies, as it stands or as the root of its active
    support, wins; else :class:`NonConvergenceError` is raised.  It runs at
    unit scale, and the winner is certified again at the caller's.
    """
    unit, c = _unit_scale(inst)
    A, q, n = unit.A, unit.q, unit.A.n
    rng = cfg.substream("tcp_iterative")
    starts = np.vstack([power_component(pos_part(-q), 1.0 / (A.m - 1)), np.zeros(n),
                        rng.uniform(0.0, 1.0, size=(6, n))])

    def residual(X: np.ndarray, lanes=None) -> np.ndarray:
        flat = X.reshape(-1, n)
        W = q + contract_m1_batch(A, flat)
        return (np.sqrt(flat**2 + W**2) - flat - W).reshape(X.shape)

    def jac(X: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        W = q + contract_m1_batch(A, X)
        rho = np.sqrt(X**2 + W**2)
        kink = rho == 0.0
        dx, dw = (np.where(kink, np.sqrt(0.5), V / np.where(kink, 1.0, rho)) - 1.0 for V in (X, W))
        return dx[:, :, None] * np.eye(n) + dw[:, :, None] * jacobian_m1_batch(A, X)

    best_merit = np.inf
    for block in (starts[:1], starts[1:]):
        X, _ = newton_lanes(residual, jac, block)
        best_merit = min(best_merit, float(np.min(np.linalg.norm(residual(X), axis=1))))
        for x in X:
            sol = _at_scale(inst, _make_solution(unit, x, "iterative")
                            or _polish_active_set(unit, x, cfg), c)
            if sol is not None:
                return sol
    raise NonConvergenceError(f"semismooth Newton did not certify a solution (best merit {best_merit:.3e})",
                              best_merit=best_merit, iterations=len(starts))

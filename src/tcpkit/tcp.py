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

Above order 2, enumeration first rules out every support whose active
system is certified to have no root it could keep: the row margin of
``A_J`` (a lower bound on its activity margin ``beta``) confines every
near-root to a box, and an outward-rounded natural-interval branch and
bound shows that no point of the box solves the system to within a
tolerance (:func:`_rootless`).  A support that survives the first step
of that search and whose few Newton steps land on a point within that
tolerance could never be ruled out, and leaves the search.  Only the
supports not ruled out run multistart Newton, so the search is complete
on the ruled-out supports and remains heuristic on the rest.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .config import CLUSTER_TOL, DEFAULT_CONFIG, POSITIVITY_FLOOR, RESIDUAL_TOL, RunConfig
from .optimize import damped_newton, first_of_clusters, newton_lanes, solve_stack
from .tensor import (
    JsonRecord,
    Tensor,
    TensorFormatError,
    _BLOCK_ENTRIES,
    _kron_rows,
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
    stacked_subtensors,
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
EXCLUDE_TOL = 1e-8             # times 1 + max|q_J|: a row farther from zero rules a box out
EXCLUDE_CELLS = 200            # boxes a support may spend before it runs Newton anyway
_UNIT_ROUNDOFF = 2.0 ** -53


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


def _certified_point(inst: TcpInstance, x: np.ndarray) -> np.ndarray | None:
    """x clipped to the orthant, or None when it does not certify on ``inst``."""
    x = np.maximum(x, 0.0)
    # Newton stalls on boundary roots (x_i^(m-1) = 0) leave dust components;
    # canonicalize to the zeroed vector whenever that still certifies, so the
    # same solution is not double counted across neighboring supports.
    dusted = np.where(x > DUST_TOL, x, 0.0)
    if not np.array_equal(dusted, x) and verify_solution(inst, dusted, RESIDUAL_TOL).ok:
        return dusted
    return x if verify_solution(inst, x, RESIDUAL_TOL).ok else None


def _unit_scale(inst: TcpInstance) -> tuple[TcpInstance, float]:
    """The instance at ``q / ||q||_inf`` (q = 0 as it is) and the factor
    ``||q||_inf^(1/(m-1))`` that maps its solutions to those of ``inst``."""
    t = float(np.max(np.abs(inst.q))) or 1.0
    return TcpInstance(inst.A, inst.q / t), t ** (1.0 / (inst.A.m - 1))


def _at_scale(inst: TcpInstance, x: np.ndarray | None, c: float, method: str) -> TcpSolution | None:
    """The solution ``c x`` of ``inst`` for a point x certified at unit
    scale, certified again on ``inst``; its support is read at unit scale."""
    if x is None:
        return None
    support = tuple(i for i in range(inst.A.n) if x[i] > POSITIVITY_FLOOR)
    x = x * c
    record = verify_solution(inst, x)
    return TcpSolution(x, inst.q + contract_m1(inst.A, x), support, record, method) if record.ok else None


def _gamma(terms: int) -> float:
    """Higham's ``gamma_N = N u / (1 - N u)`` (Higham 2002, section 3.1):
    a sum of N rounded operations errs by at most gamma_N times the sum of
    its terms' absolute values."""
    return terms * _UNIT_ROUNDOFF / (1.0 - terms * _UNIT_ROUNDOFF)


def _row_margins(data: np.ndarray) -> np.ndarray:
    """The row margin ``mu = min_k (a_{k..k} - sum of |negative off-diagonal
    entries of row k|)`` of every stacked tensor of ``data`` (shape
    ``(g,) + (r,) * m``), rounded down.

    It bounds the activity margin ``beta`` from below: at a point ``x >= 0``
    whose largest component is ``x_k = 1``, no monomial of row k exceeds 1,
    so ``(A x^(m-1))_k >= mu``.
    """
    g, r = data.shape[:2]
    rows = data.reshape(g, r, -1)
    diag = np.maximum(data[(slice(None),) + (np.arange(r),) * (data.ndim - 1)], 0.0)
    negative = np.minimum(rows, 0.0).sum(axis=2)  # the diagonal entry too, when it is negative
    slack = _gamma(rows.shape[2] + 3) * (diag - negative)
    return np.min(diag + negative - slack, axis=1)


def _seeded_roots(data: np.ndarray, S: np.ndarray, Q: np.ndarray, tol: np.ndarray, widen: float,
                  owner: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Which supports ``owner[k]`` reach, in six Newton steps from ``y[k]``,
    a point ``y >= 0`` where every row of ``A_J y^(m-1) + q_J``, widened by
    ``widen`` times its absolute term sum, lies within ``tol_J`` of zero;
    each step is one :func:`solve_stack` call.

    ``data``, ``S``, ``Q``, ``tol`` and ``widen`` are :func:`_rootless`'s,
    one :func:`lane_maps` lane per start.  At such a point the exact rows
    lie within ``tol_J``, so every box that holds it keeps rows meeting
    ``[-tol_J, tol_J]``, and :func:`_rootless` could never rule it out.
    From the centre of the search box, six steps reach nearly every simple
    root that closely.  A start that diverges, or lands outside ``y >= 0``,
    shows nothing: a NaN or inf passes no comparison.
    """
    m, lanes, q = S.ndim - 1, np.arange(len(y)), Q[owner]
    contract, jacobian = lane_maps(data, S, owner)
    magnitude, _ = lane_maps(np.abs(data), S, owner)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging start shows nothing
        for _ in range(6):
            # J(y) y = (m - 1) A_J y^(m-1), so the step lands on (m-2)/(m-1) y - J(y)^-1 q_J
            y = y - (y / (m - 1) + solve_stack(jacobian(y, lanes), q[:, :, None])[0][:, :, 0])
        F = contract(y[:, None, :], lanes)[:, 0] + q
        slack = widen * (magnitude(y[:, None, :], lanes)[:, 0] + np.abs(q))
        near = (np.abs(F) + slack <= tol[owner, None]).all(axis=1) & (y >= 0.0).all(axis=1)
    return np.flatnonzero(near)


def _rootless(data: np.ndarray, S: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which active systems ``A_J y^(m-1) + q_J = 0`` are certified to have
    no root that :func:`_support_roots` could keep, the boxes each spent,
    and which were shown not to be rootless before the cap.

    ``data`` and ``S`` stack the sub-tensors of one support size and their
    ``S`` unfoldings (both of shape ``(g,) + (r,) * m``), and ``Q`` their
    offsets.  With the row margin ``mu_J > 0``, every ``y >= 0`` whose rows
    all lie within ``tol_J = EXCLUDE_TOL (1 + max|q_J|)`` of zero has, at
    its largest component k, ``mu_J ||y||_inf^(m-1) <= tol_J - q_k``, so it
    lies in the box ``[0, R]^r`` with ``R^(m-1) = (max(-q_J) + tol_J) /
    mu_J``.  A branch and bound over that box drops every box where the
    natural interval extension puts some row wholly beyond ``tol_J``: for y
    in ``[l, u]``, row i lies between ``A+_i (l) + A-_i (u) + q_i`` and
    ``A+_i (u) + A-_i (l) + q_i``, with ``A+`` / ``A-`` the positive /
    negative entries contracted at the box ends.  Each bound is widened by
    ``gamma_N`` times its absolute term sum, ``mu`` rounded down and ``R``
    up, so the rule holds in floating point at any scale.  A survivor is
    halved on every side, into ``2^r`` boxes, so that a level of boxes
    refines each axis once.  A support is rootless once no box survives;
    one with ``mu_J <= 0``, or with boxes left when the next level would
    take it past ``EXCLUDE_CELLS`` boxes, is not.  A support whose first box
    survives takes Newton steps from that box's centre; one that lands on
    a point whose rows lie within ``tol_J`` (:func:`_seeded_roots`) leaves
    the search, which could never show it rootless.  Each support's result
    depends on its own data only.
    """
    g, r = data.shape[:2]
    m = data.ndim - 1
    rows = data.reshape(g, r, -1)
    signed = np.stack([np.maximum(rows, 0.0), np.minimum(rows, 0.0)], axis=1)  # A+ and A-
    tol = EXCLUDE_TOL * (1.0 + np.abs(Q).max(axis=1))
    block = max(1, _BLOCK_ENTRIES // signed[0].size)
    # N counts m - 2 products, a scaling, the sums and q; doubled for the slack's own rounding
    widen = 2.0 * _gamma(rows.shape[2] + m)
    mu = _row_margins(data)
    rootless = mu > 0.0
    near = np.zeros(g, dtype=bool)
    reach = np.maximum(np.max(-Q, axis=1) + tol, 0.0) / np.where(rootless, mu, 1.0)
    radius = reach ** (1.0 / (m - 1)) * (1.0 + 1e-12)  # far above the rounding of either step
    owner = np.flatnonzero(rootless)
    lo, hi = np.zeros((owner.size, r)), np.repeat(radius[owner, None], r, axis=1)
    cells = np.zeros(g, dtype=int)
    corners = np.array(list(itertools.product((False, True), repeat=r)))
    while owner.size:
        boxes = np.bincount(owner, minlength=g)
        over = cells + boxes > EXCLUDE_CELLS
        rootless &= ~over
        keep = ~over[owner]
        owner, lo, hi = owner[keep], lo[keep], hi[keep]
        if not owner.size:
            break
        cells += np.where(over, 0, boxes)
        K = _kron_rows(np.stack([lo, hi], axis=1), m - 1)
        # A+ and A- at both ends, gathered a block of boxes at a time
        (Pl, Pu), (Nl, Nu) = np.concatenate([
            np.einsum("zwk,zsik->swzi", K[b : b + block], signed[owner[b : b + block]])
            for b in range(0, owner.size, block)], axis=2)
        q, t = Q[owner], tol[owner, None]
        slack = widen * (Pu - Nu + np.abs(q))
        # a NaN from an overflowing box drops nothing
        beyond = (Pl + Nu + q - slack > t) | (Pu + Nl + q + slack < -t)
        alive = ~np.any(beyond, axis=1)
        owner, lo, hi = owner[alive], lo[alive], hi[alive]
        mid = 0.5 * (lo + hi)
        # a support that keeps its first box seeks a near-root from its centre
        first = np.flatnonzero(cells[owner] == 1)
        if first.size:
            near[owner[first[_seeded_roots(data, S, Q, tol, widen, owner[first], mid[first])]]] = True
            rootless &= ~near
            keep = ~near[owner]
            owner, lo, hi, mid = owner[keep], lo[keep], hi[keep], mid[keep]
        owner = np.repeat(owner, len(corners))
        lo = np.where(corners, mid[:, None], lo[:, None]).reshape(-1, r)
        hi = np.where(corners, hi[:, None], mid[:, None]).reshape(-1, r)
    return rootless, cells, near


def _support_roots(
    inst: TcpInstance, group: list[tuple[int, ...]], cfg: RunConfig
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Strictly positive roots of the active systems A_J y^(m-1) = -q_J of
    the supports J of one size, as (J, y) pairs in support order.  A root
    found by Newton is one whose lane converged; the caller keeps the
    zero-extended roots that :func:`_certified_point` accepts.

    At order 2 the group's linear systems, read from one gather, take one
    :func:`solve_stack` call; a singular support takes its least-squares
    point, which the certificate rejects when it solves nothing.  Above
    order 2 a singleton {j} has the closed-form root ``y = (-q_j /
    a_{j..j})^(1/(m-1))`` when that ratio is positive, and none otherwise;
    a zero diagonal with ``q_j = 0`` (a continuum of roots, never the case
    for a strictly semi-positive tensor) is not enumerated.
    The supports of every larger size first pass :func:`_rootless`, with
    the group's entries and ``S`` unfoldings from one gather, and a support
    certified to have no root that could be kept gets no starts.  The
    starts of every support not ruled out run as one Newton lane array;
    each support keeps its own start stream and clustering.  Those supports
    are complete only as far as their multistart Newton is, which is
    heuristic.
    """
    m, r = inst.A.m, len(group[0])
    if m > 2 and r == 1:
        d, q = inst.A.diagonal(), inst.q
        return [((j,), np.array([(-q[j] / d[j]) ** (1.0 / (m - 1))]))
                for (j,) in group if d[j] != 0.0 and -q[j] / d[j] > 0.0]
    data, S = stacked_subtensors(inst.A, group)
    Q = inst.q[np.array(group)]
    if m == 2:  # a singular support takes its least-squares point
        Y, usable = solve_stack(data, -Q[:, :, None])
        Y = [y[:, 0] if ok else np.linalg.lstsq(M, -qJ, rcond=None)[0] for y, ok, M, qJ in zip(Y, usable, data, Q)]
        return [(J, y) for J, y in zip(group, Y) if np.min(y) > POSITIVITY_FLOOR]
    live = np.flatnonzero(~_rootless(data, S, Q)[0])
    starts = []
    for i in live:
        rng = cfg.substream("tcp", group[i])
        Y0 = rng.uniform(0.1, 1.0, size=(cfg.budget(NEWTON_STARTS), r))
        heuristic = power_component(pos_part(-Q[i]), 1.0 / (m - 1))
        starts.append(np.vstack([heuristic, Y0]) if np.min(heuristic) > 0 else Y0)
    if not starts:
        return []
    owner = np.repeat(live, [len(Y0) for Y0 in starts])
    contract, jac = lane_maps(data, S, owner)

    def residual(Y: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return contract(Y, lanes) + Q[owner[lanes]][:, None, :]

    Y, ok = newton_lanes(residual, jac, np.vstack(starts))
    lanes = np.flatnonzero(ok & (np.min(Y, axis=1) > POSITIVITY_FLOOR))
    roots: list[tuple[tuple[int, ...], np.ndarray]] = []
    for i in live:
        found = Y[lanes[owner[lanes] == i]]
        roots.extend((group[i], found[k]) for k in first_of_clusters(found, CLUSTER_TOL))
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
    found = [_certified_point(unit, np.zeros(n))] + [
        _certified_point(unit, zero_extend(y, J, n))
        for group in supports_by_size(n) for J, y in _support_roots(unit, group, cfg)
    ]
    points = sorted((x for x in found if x is not None), key=lambda x: (float(np.max(np.abs(x))), tuple(x)))
    scaled = (_at_scale(inst, points[i], c, "enumeration") for i in first_of_clusters(points, CLUSTER_TOL))
    deduped = [sol for sol in scaled if sol is not None]
    if not deduped:
        warnings.warn(
            "enumeration found no solution; for a strictly semi-positive tensor "
            "this means the search missed one",
            stacklevel=2,
        )
    return deduped


# cfg is unused; it stays because perfbench/test_checker.py passes one
def _polish_active_set(inst: TcpInstance, x: np.ndarray, cfg: RunConfig) -> np.ndarray | None:
    """The certified root of the support system suggested by the iterate's
    active pattern: its components above 1e-6, then, if that fails, only
    those of them whose row ``w_i`` is not positive (a positive row asks its
    component to leave the support)."""
    n = inst.A.n
    positive = x > 1e-6
    w = inst.q + contract_m1(inst.A, x)
    for J in dict.fromkeys([tuple(np.flatnonzero(positive)), tuple(np.flatnonzero(positive & (w <= 0.0)))]):
        if not J:
            return _certified_point(inst, np.zeros(n))
        sub = principal_subtensor(inst.A, J)
        qJ = inst.q[list(J)]
        y, ok = damped_newton(lambda y: contract_m1(sub, y) + qJ, lambda y: jacobian_m1(sub, y), x[list(J)])
        if ok and np.min(y) > POSITIVITY_FLOOR:
            point = _certified_point(inst, zero_extend(y, J, n))
            if point is not None:
                return point
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
            point = _certified_point(unit, x)
            point = _polish_active_set(unit, x, cfg) if point is None else point
            sol = _at_scale(inst, point, c, "iterative")
            if sol is not None:
                return sol
    raise NonConvergenceError(f"semismooth Newton did not certify a solution (best merit {best_merit:.3e})",
                              best_merit=best_merit, iterations=len(starts))

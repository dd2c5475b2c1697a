"""Shared search primitives.

Two workhorses live here: a grid + pattern-search minimizer over the
nonnegative unit infinity-sphere ``{x >= 0, max_i x_i = 1}`` (that set is
the union of the n faces ``{x_k = 1, 0 <= x_j <= 1}``), and a damped
Newton iteration for small square systems.  Both are deterministic given
the caller-supplied random generator.

Both kernels run lane-masked: all B starts of one problem form a (B, n)
array, and each lane follows exactly the rules a lone start would.

The pattern search (:func:`pattern_search_min`) keeps a step per lane,
starting at ``PATTERN_STEP0``.

- The start points are projected and evaluated in one batch.
- A sweep tries the moves ``x + step*d`` of every live lane along each of
  its directions d, by default the 2n axes ``[+e_0 .. +e_{n-1}, -e_0 ..
  -e_{n-1}]``, with one ``project`` and one objective call over all rows.
- A lane takes the first of its smallest moves, and only when it is
  strictly below its current value; otherwise its step halves.
- A lane retires once its step is below ``PATTERN_STEP_FLOOR``, and its
  rows leave the later batches; every lane stops after ``PATTERN_MAX_ITER``.

:func:`minimize_nonneg_sphere` runs the starts of all n faces as one such
search.  A lane of face k moves along the axes other than k, so its
``x_k = 1`` stays put and one clip to ``[0, 1]`` projects every face.

The Newton iteration (:func:`newton_lanes`) runs on a (B, r) array.  Its
lanes need not share one system: the residual and Jacobian maps get the
lane id of every row they evaluate, so the starts of many supports can run
as one array, each lane solving its own support's system.

- ``res_fn(Z, lanes)`` gets a (k, w, r) block, w points of each of the k
  lanes ``lanes``: w = 1 for the iterates, and up to 8 trial steps inside
  the line search.  ``jac_fn(Z, lanes)`` gets the (k, r) iterates of the
  lanes still running.  :func:`tcpkit.tensor.lane_maps` builds both maps
  for lanes spread over sub-tensors.

Each lane follows these rules:

- A lane converges as soon as its residual norm drops below 1e-14.
- Steps come from one :func:`solve_stack` call.  A lane whose Jacobian is
  singular, or whose step is non-finite or longer than 1e8, takes the
  least-squares step, and a lane whose least-squares step is still
  non-finite fails.
- The line search halves ``t`` from 1 down to 1e-12 over the lanes that
  have not yet accepted a step, and each lane takes the first ``t`` that
  lowers its residual norm.  All lanes try ``t = 1`` together; the lanes
  that reject it try the smaller ``t`` eight at a time, so one residual
  call covers eight halvings.
- A lane that accepts no step stops, converged iff its residual is below
  1e-10.  A lane whose accepted step is shorter than
  ``NEWTON_STEP_TOL * (1 + ||z||)`` stops, converged iff its residual
  is below 1e-8.  A lane still running after ``NEWTON_MAX_ITER``
  iterations is converged iff its residual is below 1e-10.
- Every ``STALL_WINDOW`` iterations, a lane whose residual norm is above
  1e-8 and above ``STALL_RATIO`` times its norm at the previous such
  checkpoint (the start, for the first) stops unconverged.  Such a lane
  is most often crawling toward a nonzero local minimum of its residual
  norm, and above 1e-8 it could pass none of the rules above.

:func:`damped_newton` is the one-lane call of the same kernel.

:func:`solve_stack` is the one stacked linear solve, :func:`least_point`
the one tie-break between candidate optima, and :func:`first_of_clusters`
the one duplicate rule for found roots, eigenpairs and solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import RunConfig
from .tensor import JsonRecord

BatchObjective = Callable[[np.ndarray], np.ndarray]

FACE_STARTS = 16          # random pattern-search starts per face
PATTERN_MAX_ITER = 300    # pattern-search sweeps after which every lane stops
PATTERN_STEP0 = 0.25      # first pattern-search step of every lane
PATTERN_STEP_FLOOR = 1e-9  # a lane whose step falls below this retires
REFINE_TOP = 3            # best grid points refined per face
NEWTON_MAX_ITER = 200
NEWTON_STEP_TOL = 1e-12
STALL_WINDOW = 10         # iterations between stall checkpoints
STALL_RATIO = 0.9         # share of its last checkpoint a residual must fall below


def pattern_search_min(
    batch_fn: BatchObjective,
    X0: np.ndarray,
    project: Callable[[np.ndarray], np.ndarray],
    moves: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate pattern search run on B independent starts at once.

    ``X0`` is a (B, n) array of starts, one lane per row; ``project`` maps
    raw points back onto the feasible set, row by row.  ``moves`` is a
    (B, d, n) array of each lane's move directions; ``None`` gives every
    lane the 2n axes.  Returns the (B,) final values and the (B, n) final
    points; each lane's result is the one a lone run from its start gives.
    Every sweep makes one ``project`` and one ``batch_fn`` call over the d
    trial moves of every live lane.
    """
    X = project(np.array(X0, dtype=float, ndmin=2))
    F = np.array(batch_fn(X), dtype=float)
    B, n = X.shape
    if moves is None:
        moves = np.broadcast_to(np.vstack([np.eye(n), -np.eye(n)]), (B, 2 * n, n))
    step = np.full(B, PATTERN_STEP0)
    live = np.arange(B)
    for _ in range(PATTERN_MAX_ITER):
        live = live[step[live] >= PATTERN_STEP_FLOOR]
        if live.size == 0:
            break
        L = live.size
        Xl, S = X[live][:, None, :], step[live][:, None, None]
        trials = project((Xl + S * moves[live]).reshape(-1, n))
        vals = np.asarray(batch_fn(trials)).reshape(L, -1)
        j = np.argmin(vals, axis=1)  # the first of the smallest moves
        best = vals[np.arange(L), j]
        moved = best < F[live]
        won = live[moved]
        X[won] = trials.reshape(L, -1, n)[moved, j[moved]]
        F[won] = best[moved]
        step[live[~moved]] *= 0.5
    return F, X


@dataclass
class SphereMinimum(JsonRecord):
    """Feasible upper approximation of a minimum over the nonnegative unit
    sphere; for :func:`tcpkit.semipositive.beta`, of the activity margin.

    ``value`` is the objective at ``argmin`` as the search evaluated it, a
    point of the feasible set, so it always upper-bounds the true minimum.
    """

    value: float
    argmin: np.ndarray
    certified_by: str        # "grid+refine" or "multistart"
    grid_resolution: int


def _face_starts(
    batch_fn: BatchObjective, n: int, k: int, cfg: RunConfig, rng: np.random.Generator
) -> np.ndarray:
    """Face k's pattern-search starts: its vertex, best grid points and
    random starts.  A lane moves only lower, so no start beats its result."""
    G = cfg.grid_for(n)
    starts = [np.eye(n)[k : k + 1]]  # the vertex
    if G >= 2:
        mesh = np.meshgrid(*([np.linspace(0.0, 1.0, G)] * (n - 1)), indexing="ij")
        X = np.insert(np.stack(mesh, axis=-1).reshape(-1, n - 1), k, 1.0, axis=1)
        starts.append(X[np.argsort(batch_fn(X), kind="stable")[:REFINE_TOP]])
    R = rng.uniform(0.0, 1.0, size=(cfg.budget(FACE_STARTS), n))
    R[:, k] = 1.0
    starts.append(R)
    return np.vstack(starts)


def minimize_nonneg_sphere(
    batch_fn: BatchObjective, n: int, cfg: RunConfig, rng_tag: str
) -> SphereMinimum:
    """Global minimum (heuristic) of a batch objective over {x >= 0, ||x||_inf = 1}.

    Every face's starts run as one :func:`pattern_search_min` lane array.
    Ties within 1e-10 of the best value go to the lexicographically smallest
    argmin (:func:`least_point`), so repeated runs return the same witness.
    """
    G = cfg.grid_for(n)
    if n == 1:  # the sphere is the vertex alone
        points = np.ones((1, 1))
        values = batch_fn(points)
    else:
        starts = [_face_starts(batch_fn, n, k, cfg, cfg.substream(rng_tag, "face", k)) for k in range(n)]
        axes = np.vstack([np.eye(n), -np.eye(n)])
        moves = [np.delete(axes, [k, n + k], axis=0) for k in range(n)]  # face k: all but +-e_k
        values, points = pattern_search_min(
            batch_fn, np.vstack(starts), lambda P: np.clip(P, 0.0, 1.0),
            np.repeat(moves, [len(S) for S in starts], axis=0),
        )
    best = least_point(values, points, 1e-10)
    return SphereMinimum(
        value=float(values[best]),
        argmin=points[best],
        certified_by="grid+refine" if G >= 2 else "multistart",
        grid_resolution=G,
    )


def least_point(values, points, tol: float) -> int:
    """The index of the least value, ties within ``tol`` of it going to the
    lexicographically smallest point, whatever the order of the candidates."""
    values = np.asarray(values)
    near = np.flatnonzero(values <= values.min() + tol)
    return int(min(near, key=lambda i: tuple(points[i])))


# line-search step lengths 1, 1/2, ..., down to 1e-12
_LINE_SEARCH_T = 0.5 ** np.arange(40)
_LINE_SEARCH_BLOCK = 8


def solve_stack(J: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``J^-1 B`` for a (g, r, r) stack ``J`` from one ``np.linalg.solve``
    call, and which members were usable.  Only if that call raises is each
    exactly singular or non-finite member flagged unusable and replaced by
    the identity, so a finite ``B`` is its result; the fast path checks nothing."""
    try:
        return np.linalg.solve(J, B), np.ones(len(J), dtype=bool)
    except np.linalg.LinAlgError:  # some member is exactly singular
        eye = np.eye(J.shape[1])
        usable = np.isfinite(J).all(axis=(1, 2))
        J = np.where(usable[:, None, None], J, eye)
        usable &= np.linalg.slogdet(J)[0] != 0.0
        return np.linalg.solve(np.where(usable[:, None, None], J, eye), B), usable


def _newton_steps(Jb: np.ndarray, Rb: np.ndarray) -> np.ndarray:
    """Newton steps of a batch of lanes: one stacked solve, and least squares,
    which also rides rank-deficient solution manifolds, where it fails."""
    dZ, usable = solve_stack(Jb, -Rb[:, :, None])
    dZ = dZ[:, :, 0]
    redo = ~usable | ~np.all(np.isfinite(dZ), axis=1) | (np.linalg.norm(dZ, axis=1) > 1e8)
    for i in np.flatnonzero(redo):
        dZ[i] = np.linalg.lstsq(Jb[i], -Rb[i], rcond=None)[0]
    return dZ


def newton_lanes(
    res_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jac_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    Z0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton run on B independent starts at once, one lane per row.

    Both maps get the ids of the lanes they evaluate.  ``res_fn(Z, lanes)``
    maps a (k, w, d) block, w points of each of the k lanes ``lanes``, to
    their (k, w, d) residuals, and ``jac_fn(Z, lanes)`` maps the (k, d)
    iterates of the lanes still running to their (k, d, d) Jacobians.
    Returns the final iterates and a per-lane convergence flag; each lane's
    result is the one a lone run from its start gives.
    """
    Z = np.array(Z0, dtype=float, ndmin=2)
    live = np.arange(Z.shape[0])
    R = res_fn(Z[:, None, :], live)[:, 0]
    rnorm = np.linalg.norm(R, axis=1)
    checkpoint = rnorm.copy()
    ok = np.zeros(Z.shape[0], dtype=bool)
    for it in range(NEWTON_MAX_ITER):
        done = rnorm[live] < 1e-14
        ok[live[done]] = True
        live = live[~done]
        if it and it % STALL_WINDOW == 0:
            stalled = (rnorm[live] > 1e-8) & (rnorm[live] > STALL_RATIO * checkpoint[live])
            live = live[~stalled]
            checkpoint[live] = rnorm[live]
        if live.size == 0:
            break
        dZ = _newton_steps(jac_fn(Z[live], live), R[live])
        finite = np.all(np.isfinite(dZ), axis=1)  # a non-finite lstsq step fails the lane
        live, dZ = live[finite], dZ[finite]
        step_len = np.linalg.norm(dZ, axis=1)
        accepted_t = np.zeros(live.size)
        pending = np.arange(live.size)
        start, width = 0, 1
        while start < _LINE_SEARCH_T.size and pending.size:
            # a lane takes the first (largest) t of the block that lowers its residual
            ts = _LINE_SEARCH_T[start : start + width]
            lanes = live[pending]
            Z_new = Z[lanes][:, None, :] + ts[None, :, None] * dZ[pending][:, None, :]
            R_new = res_fn(Z_new, lanes)
            rnorm_new = np.linalg.norm(R_new, axis=2)
            better = rnorm_new < rnorm[lanes][:, None]
            hit = np.any(better, axis=1)
            first = np.argmax(better, axis=1)[hit]
            won = lanes[hit]
            Z[won], R[won], rnorm[won] = Z_new[hit, first], R_new[hit, first], rnorm_new[hit, first]
            accepted_t[pending[hit]] = ts[first]
            pending = pending[~hit]
            start, width = start + width, _LINE_SEARCH_BLOCK
        stuck = accepted_t == 0.0
        ok[live[stuck]] = rnorm[live[stuck]] < 1e-10
        short = ~stuck & (
            accepted_t * step_len
            < NEWTON_STEP_TOL * (1.0 + np.linalg.norm(Z[live], axis=1))
        )
        ok[live[short]] = rnorm[live[short]] < 1e-8
        live = live[~stuck & ~short]
    ok[live] = rnorm[live] < 1e-10
    return Z, ok


def damped_newton(
    res_fn: Callable[[np.ndarray], np.ndarray],
    jac_fn: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """One start of :func:`newton_lanes`, for residual and Jacobian maps of
    a single iterate."""
    Z, ok = newton_lanes(
        lambda Z, lanes: np.array([[res_fn(z) for z in block] for block in Z]),
        lambda Z, lanes: np.array([jac_fn(z) for z in Z]),
        np.asarray(z0, dtype=float)[None, :],
    )
    return Z[0], bool(ok[0])


def first_of_clusters(rows, tol: float) -> list[int]:
    """Greedy max-norm dedupe: the indices of the rows kept, in row order.

    A row is kept unless it lies within ``tol`` in max norm of a row kept
    before it, so the caller's ordering picks each cluster's survivor.
    """
    kept: list[int] = []
    for i, row in enumerate(rows):
        if any(np.max(np.abs(row - rows[k])) <= tol for k in kept):
            continue
        kept.append(i)
    return kept

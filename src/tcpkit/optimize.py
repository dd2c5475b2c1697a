"""Shared search primitives.

Two workhorses live here: a face-by-face grid + pattern-search minimizer
over the nonnegative unit infinity-sphere ``{x >= 0, max_i x_i = 1}``
(that set is the union of the n faces ``{x_k = 1, 0 <= x_j <= 1}``), and a
damped Newton iteration for small square systems.  Both are deterministic
given the caller-supplied random generator.

The Newton iteration runs lane-masked (:func:`newton_lanes`): all B starts
of one system form a ``(B, r)`` array, and each lane follows exactly the
rules a lone start would.

- A lane converges as soon as its residual norm drops below 1e-14.
- Steps come from one batched linear solve.  A lane whose Jacobian is
  singular is solved again on its own; a step that is non-finite or longer
  than 1e8 is replaced by the least-squares step, and a lane whose
  least-squares step is still non-finite fails.
- The line search halves ``t`` from 1 down to 1e-12 over the lanes that
  have not yet accepted a step, and each lane takes the first ``t`` that
  lowers its residual norm.  All lanes try ``t = 1`` together; the lanes
  that reject it try the smaller ``t`` eight at a time, so one residual
  call covers eight halvings.
- A lane that accepts no step stops, converged iff its residual is below
  1e-10.  A lane whose accepted step is shorter than
  ``cfg.newton_step_tol * (1 + ||z||)`` stops, converged iff its residual
  is below 1e-8.  A lane still running after ``cfg.newton_max_iter``
  iterations is converged iff its residual is below 1e-10.

:func:`damped_newton` is the one-lane call of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import RunConfig

BatchObjective = Callable[[np.ndarray], np.ndarray]


def pattern_search_min(
    batch_fn: BatchObjective,
    x0: np.ndarray,
    project: Callable[[np.ndarray], np.ndarray],
    step0: float = 0.25,
    step_floor: float = 1e-9,
    max_iter: int = 300,
) -> tuple[float, np.ndarray]:
    """Coordinate pattern search with shrinking steps.

    All 2n axis moves are evaluated per sweep as a single batch; the step
    halves whenever no move improves, down to ``step_floor``.  ``project``
    maps raw trial points back onto the feasible set.
    """
    x = project(np.asarray(x0, dtype=float)[None, :])[0]
    fx = float(batch_fn(x[None, :])[0])
    n = x.size
    eye = np.eye(n)
    step = step0
    for _ in range(max_iter):
        if step < step_floor:
            break
        trials = project(np.vstack([x + step * eye, x - step * eye]))
        vals = batch_fn(trials)
        j = int(np.argmin(vals))
        if vals[j] < fx:
            x = trials[j]
            fx = float(vals[j])
        else:
            step *= 0.5
    return fx, x


@dataclass
class SphereMinimum:
    value: float
    argmin: np.ndarray
    certified_by: str        # "grid+refine" or "multistart"
    grid_resolution: int


def _face_project(k: int) -> Callable[[np.ndarray], np.ndarray]:
    def project(P: np.ndarray) -> np.ndarray:
        Q = np.clip(P, 0.0, 1.0)
        Q[:, k] = 1.0
        return Q

    return project


def _face_candidates(
    batch_fn: BatchObjective, n: int, k: int, cfg: RunConfig, rng: np.random.Generator
) -> list[tuple[float, np.ndarray]]:
    free = [j for j in range(n) if j != k]
    G = cfg.grid_for(n)
    out: list[tuple[float, np.ndarray]] = []

    vertex = np.zeros(n)
    vertex[k] = 1.0
    if not free:
        out.append((float(batch_fn(vertex[None, :])[0]), vertex))
        return out

    starts = [vertex]
    if G >= 2:
        axes = np.linspace(0.0, 1.0, G)
        mesh = np.meshgrid(*([axes] * len(free)), indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        X = np.ones((pts.shape[0], n))
        X[:, free] = pts
        vals = batch_fn(X)
        best = np.argsort(vals, kind="stable")[: cfg.refine_top]
        for i in best:
            out.append((float(vals[i]), X[i].copy()))
            starts.append(X[i].copy())
    R = rng.uniform(0.0, 1.0, size=(cfg.face_starts, n))
    R[:, k] = 1.0
    starts.extend(R)

    project = _face_project(k)
    for s in starts:
        val, x = pattern_search_min(batch_fn, s, project)
        out.append((val, x))
    return out


def minimize_nonneg_sphere(
    batch_fn: BatchObjective, n: int, cfg: RunConfig, rng_tag: str
) -> SphereMinimum:
    """Global minimum (heuristic) of a batch objective over {x >= 0, ||x||_inf = 1}.

    Ties within 1e-10 of the best value break to the lexicographically
    smallest argmin so repeated runs return the same witness.
    """
    G = cfg.grid_for(n)

    candidates = [
        c
        for k in range(n)
        for c in _face_candidates(batch_fn, n, k, cfg, cfg.substream(rng_tag, "face", k))
    ]
    best_val = min(v for v, _ in candidates)
    near = [x for v, x in candidates if v <= best_val + 1e-10]
    argmin = min(near, key=lambda x: tuple(x))
    return SphereMinimum(
        value=float(batch_fn(argmin[None, :])[0]),
        argmin=argmin,
        certified_by="grid+refine" if G >= 2 else "multistart",
        grid_resolution=G,
    )


# line-search step lengths 1, 1/2, ..., down to 1e-12
_LINE_SEARCH_T = 0.5 ** np.arange(40)
_LINE_SEARCH_BLOCK = 8


def _lane_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Newton step of one lane.  Singular or exploding solves fall back to
    least squares, which also rides rank-deficient solution manifolds."""
    try:
        dz = np.linalg.solve(J, -r)
        if np.all(np.isfinite(dz)) and np.linalg.norm(dz) <= 1e8:
            return dz
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(J, -r, rcond=None)[0]


def _newton_steps(Jb: np.ndarray, Rb: np.ndarray) -> np.ndarray:
    """Newton steps of a batch of lanes: one batched solve, per-lane fallback."""
    try:
        dZ = np.linalg.solve(Jb, -Rb[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # some lane is singular: solve lane by lane
        return np.stack([_lane_step(J, r) for J, r in zip(Jb, Rb)])
    redo = ~np.all(np.isfinite(dZ), axis=1) | (np.linalg.norm(dZ, axis=1) > 1e8)
    for i in np.flatnonzero(redo):
        dZ[i] = np.linalg.lstsq(Jb[i], -Rb[i], rcond=None)[0]
    return dZ


def newton_lanes(
    res_fn: Callable[[np.ndarray], np.ndarray],
    jac_fn: Callable[[np.ndarray], np.ndarray],
    Z0: np.ndarray,
    cfg: RunConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton run on B independent starts at once, one lane per row.

    ``res_fn`` maps a (k, r) batch of points to their (k, r) residuals, row
    by row, and ``jac_fn`` maps the iterates of the lanes still running to
    their (k, r, r) Jacobians.  Returns the final iterates and a per-lane
    convergence flag; each lane's result is the one a lone run from its
    start gives.
    """
    Z = np.array(Z0, dtype=float, ndmin=2)
    R = res_fn(Z)
    rnorm = np.linalg.norm(R, axis=1)
    ok = np.zeros(Z.shape[0], dtype=bool)
    live = np.arange(Z.shape[0])
    for _ in range(cfg.newton_max_iter):
        done = rnorm[live] < 1e-14
        ok[live[done]] = True
        live = live[~done]
        if live.size == 0:
            break
        dZ = _newton_steps(jac_fn(Z[live]), R[live])
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
            k, w = lanes.size, ts.size
            Z_new = Z[lanes][:, None, :] + ts[None, :, None] * dZ[pending][:, None, :]
            R_new = res_fn(Z_new.reshape(k * w, -1)).reshape(k, w, -1)
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
            < cfg.newton_step_tol * (1.0 + np.linalg.norm(Z[live], axis=1))
        )
        ok[live[short]] = rnorm[live[short]] < 1e-8
        live = live[~stuck & ~short]
    ok[live] = rnorm[live] < 1e-10
    return Z, ok


def damped_newton(
    res_fn: Callable[[np.ndarray], np.ndarray],
    jac_fn: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    cfg: RunConfig,
) -> tuple[np.ndarray, bool]:
    """One start of :func:`newton_lanes`, for residual and Jacobian maps of
    a single iterate."""
    Z, ok = newton_lanes(
        lambda Z: np.array([res_fn(z) for z in Z]),
        lambda Z: np.array([jac_fn(z) for z in Z]),
        np.asarray(z0, dtype=float)[None, :],
        cfg,
    )
    return Z[0], bool(ok[0])

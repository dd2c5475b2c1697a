"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive (nested loops, dense grids, textbook
pivoting) and shares no code path with the library beyond numpy/scipy
primitives, except the per-support Newton references at the end: they run
the library's Newton kernel and batch contractions on one support at a
time, so the solvers that share one lane array across supports can be
checked against them bit for bit.  The last one, :func:`reference_rootless`,
is the support exclusion as it stood before Krawczyk's existence test: the
test may only stop supports earlier, never change which are ruled out.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import null_space

from tcpkit import eigen, tcp
from tcpkit.config import CLUSTER_TOL, POSITIVITY_FLOOR
from tcpkit.optimize import newton_lanes
from tcpkit.tcp import EXCLUDE_CELLS, EXCLUDE_TOL, _gamma, _row_margins
from tcpkit.tensor import (
    _BLOCK_ENTRIES,
    _kron_rows,
    contract_m1,
    contract_m1_batch,
    jacobian_m1_batch,
    pos_part,
    power_component,
    principal_subtensor,
)


def naive_contract_m1(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Triple-loop definition of the degree-(m-1) contraction."""
    m = data.ndim
    n = data.shape[0]
    out = np.zeros(n)
    for idx in itertools.product(range(n), repeat=m):
        prod = 1.0
        for k in idx[1:]:
            prod *= x[k]
        out[idx[0]] += data[idx] * prod
    return out


def feasible_grid(n: int, points: int) -> np.ndarray:
    """Grid over {x >= 0, ||x||_inf = 1}: points-per-axis cube, max coord 1."""
    axes = np.linspace(0.0, 1.0, points)
    mesh = np.meshgrid(*([axes] * n), indexing="ij")
    X = np.stack([g.ravel() for g in mesh], axis=1)
    return X[np.max(X, axis=1) == 1.0]


def beta_grid_oracle(data: np.ndarray, points: int = 41) -> float:
    """Brute-force activity-margin minimum over the feasible grid."""
    n = data.shape[0]
    best = np.inf
    for x in feasible_grid(n, points):
        rows = naive_contract_m1(data, x)
        best = min(best, float(np.max(x * rows)))
    return best


def draw_decisive_tensor(
    rng: np.random.Generator,
    m_choices=(2, 3),
    n_choices=(2, 3),
    margin: float = 0.05,
    points: int = 41,
) -> np.ndarray:
    """Random mixed-sign entries, redrawn until the grid margin is decisive.

    A grid margin within ``margin`` of zero means the verdict would hinge on
    behavior between grid points, where a finite grid oracle has no say; such
    draws are rejected (using only oracle-side quantities).
    """
    while True:
        m = int(rng.choice(m_choices))
        n = int(rng.choice(n_choices))
        data = rng.uniform(-1.0, 1.0, size=(n,) * m)
        if abs(beta_grid_oracle(data, points)) > margin:
            return data


def diag_dominant_data(rng: np.random.Generator, m: int, n: int, margin: float) -> np.ndarray:
    """The draw of ``perfbench/workloads.py``'s ``diag_dominant``: mixed-sign
    entries, each diagonal entry its row's off-diagonal absolute sum plus
    ``margin`` plus a uniform [0, 1) draw."""
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    cell = tuple([np.arange(n)] * m)
    data[cell] = 0.0
    data[cell] = np.abs(data).reshape(n, -1).sum(axis=1) + margin + rng.uniform(0.0, 1.0, size=n)
    return data


def nonneg_symmetric_data(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """The draw of ``perfbench/workloads.py``'s ``nonneg_symmetric`` with a
    raised diagonal: symmetrized uniform [0, 1) entries, each diagonal entry
    raised by 0.5 plus a uniform [0, 1) draw."""
    data = rng.uniform(0.0, 1.0, size=(n,) * m)
    perms = list(itertools.permutations(range(m)))
    data = sum(np.transpose(data, p) for p in perms) / len(perms)
    cell = tuple([np.arange(n)] * m)
    data[cell] = data[cell] + 0.5 + rng.uniform(0.0, 1.0, size=n)
    return data


def classify_grid_oracle(data: np.ndarray, points: int = 41) -> str:
    """Definition-direct verdict on the feasible grid.

    A point passes strictly when some active coordinate has a strictly
    positive row, and weakly when some active coordinate has a nonnegative
    row; the verdict aggregates over all grid points.
    """
    n = data.shape[0]
    all_strict = True
    all_weak = True
    for x in feasible_grid(n, points):
        rows = naive_contract_m1(data, x)
        active = x > 0
        if not np.any(active & (rows > 1e-9)):
            all_strict = False
        if not np.any(active & (rows >= -1e-9)):
            all_weak = False
        if not all_weak:
            break
    if all_strict:
        return "strictly_semi_positive"
    if all_weak:
        return "semi_positive_only"
    return "not_semi_positive"


def _positive_representative(basis: np.ndarray) -> np.ndarray | None:
    """A strictly positive vector in the span, if a cheap construction finds one."""
    if basis.size == 0:
        return None
    candidates = [basis @ basis.T @ np.ones(basis.shape[0])]  # projection of ones
    for j in range(basis.shape[1]):
        candidates.extend([basis[:, j], -basis[:, j]])
    for y in candidates:
        if y.size and np.min(y) > 1e-9 * max(1.0, np.max(np.abs(y))):
            return y / np.linalg.norm(y)
    return None


def pareto_matrix_oracle(M: np.ndarray, tol: float = 1e-9) -> list[float]:
    """Classical Pareto spectrum of a matrix by exhaustive principal
    submatrices: eigenvalues with a strictly positive eigenvector on the
    submatrix whose zero-extension keeps the remaining rows nonnegative."""
    n = M.shape[0]
    values: list[float] = []
    for size in range(1, n + 1):
        for J in itertools.combinations(range(n), size):
            sub = M[np.ix_(J, J)]
            eigvals = np.linalg.eigvals(sub)
            for lam in eigvals:
                if abs(lam.imag) > tol:
                    continue
                lam = float(lam.real)
                basis = null_space(sub - lam * np.eye(size), rcond=1e-10)
                y = _positive_representative(basis)
                if y is None:
                    continue
                x = np.zeros(n)
                x[list(J)] = y
                rows = M @ x
                off = [i for i in range(n) if i not in J]
                if off and np.min(rows[off]) < -1e-8:
                    continue
                values.append(lam)
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > 1e-6:
            out.append(v)
    return out


def highs_max_min_component(basis: np.ndarray) -> float | None:
    """The largest smallest component of ``y = basis @ c`` over ``sum(y) = 1``,
    as HiGHS solves the LP ``max t  s.t.  basis @ c >= t, colsum @ c = 1``;
    None when the LP reports no optimum."""
    from scipy.optimize import linprog

    r, k = basis.shape
    objective = np.zeros(k + 1)
    objective[-1] = -1.0
    res = linprog(
        objective,
        A_ub=np.hstack([-basis, np.ones((r, 1))]), b_ub=np.zeros(r),
        A_eq=np.hstack([basis.sum(axis=0)[None, :], np.zeros((1, 1))]), b_eq=[1.0],
        bounds=[(None, None)] * (k + 1), method="highs",
    )
    return float(res.x[-1]) if res.success else None


def lemke_lcp(M: np.ndarray, q: np.ndarray, max_iter: int = 200) -> np.ndarray | None:
    """Textbook complementary pivoting for w = q + Mz, w, z >= 0, w'z = 0.

    Returns z, or None on ray termination (which cannot occur for strictly
    semi-monotone M with the all-ones covering vector).
    """
    n = q.size
    if np.min(q) >= 0:
        return np.zeros(n)
    # columns: w_0..w_{n-1}, z_0..z_{n-1}, artificial, rhs
    T = np.hstack([np.eye(n), -M, -np.ones((n, 1)), q.reshape(-1, 1)])
    basis = list(range(n))
    art = 2 * n

    def pivot(r: int, c: int) -> None:
        T[r] /= T[r, c]
        for i in range(n):
            if i != r and T[i, c] != 0.0:
                T[i] -= T[i, c] * T[r]

    r = int(np.argmin(T[:, -1]))
    leaving = basis[r]
    pivot(r, art)
    basis[r] = art
    for _ in range(max_iter):
        entering = leaving + n if leaving < n else leaving - n
        col = T[:, entering]
        rows = [i for i in range(n) if col[i] > 1e-11]
        if not rows:
            return None
        ratios = np.array([T[i, -1] / col[i] for i in rows])
        best = ratios.min()
        tied = [rows[i] for i in range(len(rows)) if ratios[i] <= best + 1e-9]
        r = next((i for i in tied if basis[i] == art), tied[0])
        leaving = basis[r]
        pivot(r, entering)
        basis[r] = entering
        if leaving == art:
            z = np.zeros(n)
            for i, b in enumerate(basis):
                if n <= b < art:
                    z[b - n] = T[i, -1]
            return z
    return None


def reference_newton(res_fn, jac_fn, z0, max_iter: int = 200, step_tol: float = 1e-12,
                     stall_window: int = 10, stall_ratio: float = 0.9):
    """One start of damped Newton at a time, written as a plain scalar loop.

    Same stop rules as the library's lane kernel: converged below a residual
    norm of 1e-14; a singular or exploding solve (non-finite, or a step
    longer than 1e8) falls back to least squares, and a non-finite
    least-squares step fails; halving line search from t = 1 to 1e-12; no
    accepted step ends the run at 1e-10, a short step at 1e-8, and the
    iteration budget at 1e-10.  Every ``stall_window`` iterations the run
    fails when its residual norm is above 1e-8 and above ``stall_ratio``
    times its norm at the previous checkpoint (the start, for the first).
    """
    z = np.array(z0, dtype=float)
    r = res_fn(z)
    rnorm = float(np.linalg.norm(r))
    checkpoint = rnorm
    for it in range(max_iter):
        if rnorm < 1e-14:
            return z, True
        if it > 0 and it % stall_window == 0:
            if rnorm > 1e-8 and rnorm > stall_ratio * checkpoint:
                return z, False
            checkpoint = rnorm
        J = jac_fn(z)
        try:
            dz = np.linalg.solve(J, -r)
            if not np.all(np.isfinite(dz)) or np.linalg.norm(dz) > 1e8:
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            dz = np.linalg.lstsq(J, -r, rcond=None)[0]
            if not np.all(np.isfinite(dz)):
                return z, False
        t = 1.0
        while t >= 1e-12:
            z_new = z + t * dz
            r_new = res_fn(z_new)
            rnorm_new = float(np.linalg.norm(r_new))
            if rnorm_new < rnorm:
                z, r, rnorm = z_new, r_new, rnorm_new
                break
            t *= 0.5
        else:
            return z, rnorm < 1e-10
        if t * float(np.linalg.norm(dz)) < step_tol * (1.0 + float(np.linalg.norm(z))):
            return z, rnorm < 1e-8
    return z, rnorm < 1e-10


def reference_pattern_search(batch_fn, x0, project, step0=0.25, step_floor=1e-9, max_iter=300):
    """One start of the coordinate pattern search at a time, as a plain loop.

    Same rules as the library's lane kernel: the 2n axis moves
    ``[+step*e_0 .. +step*e_{n-1}, -step*e_0 .. -step*e_{n-1}]`` are
    projected and evaluated as one batch; the first of the smallest moves is
    taken only when it is strictly below the current value, else the step
    halves; the run ends once the step is below ``step_floor`` or after
    ``max_iter`` sweeps.
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


# ---------------------------------------------------------------------------
# per-support Newton references
# ---------------------------------------------------------------------------


def rows_map(batch_fn):
    """A (B, d) -> (B, d) batch map as a Newton lane map of (k, w, d) blocks."""
    return lambda Z, lanes: batch_fn(Z.reshape(-1, Z.shape[-1])).reshape(Z.shape)


def reference_support_roots(inst, J, cfg):
    """Strictly positive roots of A_J y^(m-1) = -q_J at order m >= 3: the
    starts of this one support, Newton, certificate and clustering."""
    sub = principal_subtensor(inst.A, J)
    qJ = inst.q[list(J)]
    r, m = sub.n, sub.m

    def residual(Y):
        return contract_m1_batch(sub, Y) + qJ

    rng = cfg.substream("tcp", tuple(J))
    starts = rng.uniform(0.1, 1.0, size=(cfg.budget(tcp.NEWTON_STARTS), r))
    heuristic = power_component(pos_part(-qJ), 1.0 / (m - 1))
    if np.min(heuristic) > 0:
        starts = np.vstack([heuristic, starts])
    Y, ok = newton_lanes(rows_map(residual), lambda Y, lanes: jacobian_m1_batch(sub, Y), starts)
    Y = Y[ok & (np.min(Y, axis=1) > POSITIVITY_FLOOR)]
    if Y.shape[0] == 0:
        return []
    scale = 1.0 + float(np.abs(qJ).max(initial=0.0))
    certified = np.linalg.norm(residual(Y), axis=1) <= 1e-9 * scale
    roots = []
    for y in Y[certified]:
        if any(np.max(np.abs(y - seen)) <= CLUSTER_TOL for seen in roots):
            continue
        roots.append(y)
    return roots


def _rayleigh(sub, y, kind):
    core = contract_m1(sub, y)
    if kind == "H":
        denom = float(np.sum(y**sub.m))
        return float(y @ core) / denom if denom > 0 else 0.0
    return float(y @ core)


def reference_eigen_candidates(sub, kind, cfg, tag, seeds=None):
    """Interior eigenpairs (lam, y) of one sub-tensor, ||y||_2 = 1, from
    multistart Newton on the H or Z system of this one support: seeds, the
    uniform vector and ``cfg.budget(eigen.NEWTON_STARTS)`` random starts; strict
    positivity, certificate and clustering afterwards."""
    r, m = sub.n, sub.m

    def residual(Z):
        Y, lam = Z[:, :r], Z[:, r:]
        core = contract_m1_batch(sub, Y)
        eig_part = core - lam * (Y ** (m - 1) if kind == "H" else Y)
        return np.hstack([eig_part, np.sum(Y * Y, axis=1, keepdims=True) - 1.0])

    def jac(Z, lanes):
        Y, lam = Z[:, :r], Z[:, r]
        out = np.zeros((Z.shape[0], r + 1, r + 1))
        out[:, :r, :r] = jacobian_m1_batch(sub, Y)
        diag = np.arange(r)
        if kind == "H":
            out[:, diag, diag] -= lam[:, None] * (m - 1) * Y ** (m - 2)
            out[:, :r, r] = -(Y ** (m - 1))
        else:
            out[:, diag, diag] -= lam[:, None]
            out[:, :r, r] = -Y
        out[:, r, :r] = 2.0 * Y
        return out

    rng = cfg.substream("eigen", kind, tag)
    starts = list(seeds or [])
    uniform = np.ones(r) / np.sqrt(r)
    starts.append((uniform, _rayleigh(sub, uniform, kind)))
    for row in rng.uniform(0.1, 1.0, size=(cfg.budget(eigen.NEWTON_STARTS), r)):
        y0 = row / np.linalg.norm(row)
        starts.append((y0, _rayleigh(sub, y0, kind)))

    Z0 = np.array([np.append(y0, lam0) for y0, lam0 in starts])
    Z, ok = newton_lanes(rows_map(residual), jac, Z0)
    Y, lam = Z[:, :r], Z[:, r]
    nrm = np.linalg.norm(Y, axis=1)
    keep = ok & (np.min(Y, axis=1) > eigen.INTERIOR_FLOOR) & (np.abs(nrm - 1.0) <= 1e-6)
    if not keep.any():
        return []
    Y, lam = Y[keep] / nrm[keep, None], lam[keep]
    if kind == "Z":
        lam = np.sum(Y * contract_m1_batch(sub, Y), axis=1)
    resid = np.linalg.norm(residual(np.column_stack([Y, lam])), axis=1)
    found = [
        (float(l), y)
        for l, y, good in zip(lam, Y, resid <= 1e-9 * (1.0 + np.abs(lam)))
        if good
    ]
    found.sort(key=lambda p: (p[0], tuple(p[1])))
    kept = []
    for l, y in found:
        if any(abs(l - l2) <= CLUSTER_TOL and np.max(np.abs(y - y2)) <= CLUSTER_TOL
               for l2, y2 in kept):
            continue
        kept.append((l, y))
    return kept


# ---------------------------------------------------------------------------
# the exclusion search before it gained Krawczyk's existence test
# ---------------------------------------------------------------------------


def reference_rootless(data: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which active systems ``A_J y^(m-1) + q_J = 0`` are certified to have
    no root that :func:`_support_roots` could keep, and the boxes each spent.

    ``data`` stacks the sub-tensors of one support size (shape
    ``(g,) + (r,) * m``) and ``Q`` their offsets.  With the row margin
    ``mu_J > 0``, every ``y >= 0`` whose rows all lie within
    ``tol_J = EXCLUDE_TOL (1 + max|q_J|)`` of zero has, at its largest
    component k, ``mu_J ||y||_inf^(m-1) <= tol_J - q_k``, so it lies in the
    box ``[0, R]^r`` with ``R^(m-1) = (max(-q_J) + tol_J) / mu_J``.  A
    branch and bound over that box drops every box where the natural
    interval extension puts some row wholly beyond ``tol_J``: for y in
    ``[l, u]``, row i lies between ``A+_i (l) + A-_i (u) + q_i`` and
    ``A+_i (u) + A-_i (l) + q_i``, with ``A+`` / ``A-`` the positive /
    negative entries contracted at the box ends.  Each bound is widened by
    ``gamma_N`` times its absolute term sum, ``mu`` rounded down and ``R``
    up, so the rule holds in floating point at any scale.  A survivor is
    halved on every side, into ``2^r`` boxes, so that a level of boxes
    refines each axis once.  A support is rootless once no box survives;
    one with ``mu_J <= 0``, or with boxes left when the next level would
    take it past ``EXCLUDE_CELLS`` boxes, is not.  Each support's result
    depends on its own boxes only.
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
        owner = np.repeat(owner, len(corners))
        lo = np.where(corners, mid[:, None], lo[:, None]).reshape(-1, r)
        hi = np.where(corners, hi[:, None], mid[:, None]).reshape(-1, r)
    return rootless, cells

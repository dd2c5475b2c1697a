"""Independent checks of tcpkit outputs, written against numpy only.

Nothing here imports tcpkit: contractions use their own einsum, solutions
are certified relative to the instance's scale, order-2 instances are
solved by Lemke's complementary pivoting, and margin verdicts come from a
dense grid with a Lipschitz lower bound.  Tensors are plain ndarrays of
shape ``(n,) * m``.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance of the solution certificate: w >= -CERT_TOL * s and
# |x'w| <= CERT_TOL * s with s = ||q||_inf + ||A x^(m-1)||_inf.
CERT_TOL = 1e-7

STRICT = "strictly_semi_positive"
SEMI_ONLY = "semi_positive_only"
NOT_SEMI = "not_semi_positive"

_LETTERS = "abcdefgh"


def contract(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A x^(m-1) for a vector x of shape (n,) or for each row of X, shape (B, n)."""
    m = A.ndim
    X = np.asarray(X, dtype=float)
    rows = X if X.ndim == 2 else X[None, :]
    idx = _LETTERS[:m]
    subs = idx + "," + ",".join("z" + c for c in idx[1:]) + "->z" + idx[0]
    out = np.einsum(subs, A, *([rows] * (m - 1)))
    return out if X.ndim == 2 else out[0]


def certify(A: np.ndarray, q: np.ndarray, x: np.ndarray, tol: float = CERT_TOL) -> str | None:
    """None when x solves the complementarity problem (A, q) at tol relative
    to the instance's scale; otherwise the reason it does not."""
    x = np.asarray(x, dtype=float)
    if x.shape != q.shape or not np.all(np.isfinite(x)):
        return "malformed solution vector"
    Ax = contract(A, x)
    w = q + Ax
    s = float(np.abs(q).max() + np.abs(Ax).max())
    if float(x.min()) < 0.0:
        return f"x has a negative component ({float(x.min()):.3e})"
    if float(w.min()) < -tol * s:
        return f"w = q + A x^(m-1) has min {float(w.min()):.3e} below -tol*s = {-tol * s:.3e}"
    if abs(float(x @ w)) > tol * s:
        return f"|x'w| = {abs(float(x @ w)):.3e} above tol*s = {tol * s:.3e}"
    return None


def same_point(x: np.ndarray, y: np.ndarray, rtol: float = 1e-5) -> bool:
    scale = max(1.0, float(np.abs(x).max()), float(np.abs(y).max()))
    return float(np.abs(np.asarray(x) - np.asarray(y)).max()) <= rtol * scale


def same_point_set(xs: list[np.ndarray], ys: list[np.ndarray], rtol: float = 1e-5) -> bool:
    """Each point of either list lies within rtol of some point of the other."""
    return all(any(same_point(x, y, rtol) for y in ys) for x in xs) and all(
        any(same_point(x, y, rtol) for x in xs) for y in ys
    )


def lemke(M: np.ndarray, q: np.ndarray, max_pivots: int = 500) -> np.ndarray:
    """Solution z of the linear complementarity problem w = q + M z, w, z >= 0,
    z'w = 0, by Lemke's method with the all-ones covering vector.

    Raises ``RuntimeError`` on ray termination, which cannot happen for the
    P-matrices the benchmark feeds it.
    """
    n = q.size
    if float(q.min()) >= 0.0:
        return np.zeros(n)
    # columns: w (0..n-1), z (n..2n-1), z0 (2n), right-hand side (2n+1)
    T = np.hstack([np.eye(n), -M, -np.ones((n, 1)), q[:, None]]).astype(float)
    basis = list(range(n))

    def pivot(r: int, c: int) -> None:
        T[r] /= T[r, c]
        for i in range(n):
            if i != r:
                T[i] -= T[i, c] * T[r]
        basis[r] = c

    r = int(np.argmin(q))
    leaving = basis[r]
    pivot(r, 2 * n)
    for _ in range(max_pivots):
        entering = leaving + n if leaving < n else leaving - n
        col = T[:, entering]
        rows = [i for i in range(n) if col[i] > 1e-12]
        if not rows:
            raise RuntimeError("Lemke ray termination")
        r = min(rows, key=lambda i: (T[i, -1] / col[i], i))
        leaving = basis[r]
        pivot(r, entering)
        if leaving == 2 * n:
            z = np.zeros(n)
            for i, var in enumerate(basis):
                if n <= var < 2 * n:
                    z[var - n] = T[i, -1]
            return np.maximum(z, 0.0)
    raise RuntimeError("Lemke pivot budget exhausted")


def activity(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """max_i x_i (A x^(m-1))_i for each row of X: the margin objective."""
    return np.max(X * contract(A, X), axis=1)


def grid_margin(A: np.ndarray, points: int, chunk: int = 20000) -> tuple[float, float]:
    """Minimum of the margin objective over a grid of each face of the
    nonnegative unit infinity-sphere, and the Lipschitz slack.

    On a face every coordinate lies in [0, 1], so |(A x^(m-1))_i| <= r_i
    (the row absolute sum) and x_i (A x^(m-1))_i moves by at most m * r_i * h
    when no coordinate moves by more than h.  Every point of a face lies
    within h = 1 / (2 (points - 1)) of a grid point, so the true margin is
    at least the grid minimum minus ``slack = m * max_i r_i * h``.
    """
    m, n = A.ndim, A.shape[0]
    axis = np.linspace(0.0, 1.0, points)
    best = np.inf
    mesh = np.stack([g.ravel() for g in np.meshgrid(*([axis] * (n - 1)), indexing="ij")], axis=1)
    for k in range(n):
        free = [j for j in range(n) if j != k]
        for start in range(0, mesh.shape[0], chunk):
            block = mesh[start : start + chunk]
            X = np.ones((block.shape[0], n))
            X[:, free] = block
            best = min(best, float(activity(A, X).min()))
    rows = np.abs(A).reshape(n, -1).sum(axis=1)
    slack = m * float(rows.max()) / (2.0 * (points - 1))
    return best, slack


def grid_verdict(A: np.ndarray, points: int, margin: float) -> str | None:
    """Verdict the dense grid proves with room ``margin``, or None.

    A grid point with objective below -margin has every coordinate active
    on a negative row, so the tensor is not semi-positive; a grid minimum
    above slack + margin proves the margin positive.
    """
    best, slack = grid_margin(A, points)
    if best < -margin:
        return NOT_SEMI
    if best - slack > margin:
        return STRICT
    return None


def is_witness(A: np.ndarray, x: np.ndarray) -> bool:
    """x >= 0, x != 0, and every row where x is positive is negative."""
    x = np.asarray(x, dtype=float)
    if float(x.min()) < 0.0 or float(x.max()) <= 0.0:
        return False
    rows = contract(A, x)
    return bool(np.all(rows[x > 0.0] < 0.0))


def min_diagonal(A: np.ndarray) -> float:
    idx = np.arange(A.shape[0])
    return float(A[tuple([idx] * A.ndim)].min())


def norm_order_ok(inf: float, two: float, mnorm: float, m: int, n: int, rtol: float = 1e-9) -> bool:
    """The achieved norms raised to m-1 keep the p-norm order
    ||x||_inf <= ||x||_m <= ||x||_2 <= sqrt(n) ||x||_inf."""
    slack = rtol * max(1.0, inf, two, mnorm)
    return (
        inf <= mnorm + slack
        and mnorm <= two + slack
        and two <= n ** ((m - 1) / 2.0) * inf + slack
    )

"""The lane-masked Newton and pattern-search kernels against
one-start-at-a-time references, and the solvers that run every support of
one size as one lane array against one-support-at-a-time references."""

import itertools
import math

import numpy as np
import pytest

from tcpkit import RunConfig, TcpInstance, Tensor, beta, estimate_norm, symmetrize
from tcpkit import eigen, operators, optimize, tcp, tensor
from tcpkit.optimize import (
    damped_newton,
    first_of_clusters,
    least_point,
    minimize_nonneg_sphere,
    newton_lanes,
    pattern_search_min,
    solve_stack,
)
from tcpkit.tensor import (
    contract_m1,
    contract_m1_batch,
    jacobian_m1,
    jacobian_m1_batch,
    lane_maps,
    principal_subtensor,
    stacked_subtensors,
    supports_by_size,
)

from oracles import (
    diag_dominant_data,
    nonneg_symmetric_data,
    reference_eigen_candidates,
    reference_newton,
    reference_pattern_search,
    reference_support_roots,
    rows_map,
)

CFG = RunConfig()


def one_row(batch_fn):
    """The batch map applied to a single iterate."""
    return lambda z: batch_fn(z[None, :])[0]


def lane_fns(res_fn, jac_fn):
    """Batch maps of (B, d) rows as Newton lane maps."""
    return rows_map(res_fn), lambda Z, ids: jac_fn(Z)


def assert_lanes_match_reference(res_fn, jac_fn, Z0):
    Z, ok = newton_lanes(*lane_fns(res_fn, jac_fn), Z0)
    assert Z.shape == np.shape(Z0) and ok.shape == (len(Z0),)
    for z0, z, flag in zip(Z0, Z, ok):
        z_ref, ok_ref = reference_newton(one_row(res_fn), one_row(jac_fn), z0)
        assert flag == ok_ref
        np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-10)
    return ok


def tensor_system(m, r, seed, planted=True):
    """A non-symmetric diagonally dominant system A y^(m-1) = -q; with
    ``planted`` q is chosen so that the system has a positive root."""
    rng = np.random.default_rng([seed, m, r])
    data = rng.uniform(-1.0, 1.0, size=(r,) * m)
    idx = np.arange(r)
    data[tuple([idx] * m)] = np.abs(data).reshape(r, -1).sum(axis=1) + 0.5
    A = Tensor(data)
    q = -contract_m1_batch(A, rng.uniform(0.2, 1.0, size=(1, r)))[0]
    if not planted:
        q = rng.uniform(-2.0, 1.0, size=r)
    starts = rng.uniform(-1.0, 1.0, size=(24, r))
    return (lambda Y: contract_m1_batch(A, Y) + q), (lambda Y: jacobian_m1_batch(A, Y)), starts


@pytest.mark.parametrize("m", [3, 4])
def test_lanes_match_reference_on_tensor_systems(m):
    flags = []
    for r in (1, 2, 3, 4):
        for planted in (True, False):
            res_fn, jac_fn, starts = tensor_system(m, r, seed=5, planted=planted)
            flags.extend(assert_lanes_match_reference(res_fn, jac_fn, starts))
    assert any(flags)
    if m == 3:
        assert not all(flags)  # at odd order some drawn systems have no real root


def cube_root_system():
    """Componentwise z^3 = 1: singular Jacobian at 0, a subnormal one near it."""
    return (lambda Z: Z**3 - 1.0), (lambda Z: (3.0 * Z**2)[:, :, None])


def test_singular_lane_takes_the_lstsq_path():
    res_fn, jac_fn = cube_root_system()
    Z0 = np.array([[2.0], [0.0], [0.5]])
    ok = assert_lanes_match_reference(res_fn, jac_fn, Z0)
    # the zero lane gets the zero least-squares step and stops unconverged
    assert ok.tolist() == [True, False, True]


def test_non_finite_step_fails_only_its_lane():
    res_fn, jac_fn = cube_root_system()
    Z0 = np.array([[1e-160], [2.0], [-3.0]])  # Jacobian 3e-320: the step overflows
    ok = assert_lanes_match_reference(res_fn, jac_fn, Z0)
    assert not ok[0] and ok[1]
    Z, _ = newton_lanes(*lane_fns(res_fn, jac_fn), Z0)
    assert Z[0, 0] == 1e-160  # a failed lane keeps its last iterate


def test_single_lane_and_damped_newton_agree_with_reference():
    res_fn, jac_fn, starts = tensor_system(3, 3, seed=9)
    for z0 in starts[:6]:
        z_ref, ok_ref = reference_newton(one_row(res_fn), one_row(jac_fn), z0)
        Z, ok = newton_lanes(*lane_fns(res_fn, jac_fn), z0[None, :])
        z, flag = damped_newton(one_row(res_fn), one_row(jac_fn), z0)
        assert bool(ok[0]) == flag == ok_ref and isinstance(flag, bool)
        np.testing.assert_array_equal(Z[0], z)
        np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-10)


def test_line_search_tries_every_halving_in_blocks():
    res_fn, jac_fn = cube_root_system()
    rows = []

    def counted(Z):
        rows.append(len(Z))
        return res_fn(Z)

    _, ok = newton_lanes(*lane_fns(counted, jac_fn), np.array([[0.0]]))
    # the start, then t = 1 alone and t = 1/2 .. 2^-39 eight at a time
    assert rows == [1, 1, 8, 8, 8, 8, 7] and not ok[0]


def test_jacobians_are_taken_on_running_lanes_only():
    res_fn, jac_fn, starts = tensor_system(4, 3, seed=2)
    sizes = []

    def counted(Y):
        sizes.append(len(Y))
        return jac_fn(Y)

    newton_lanes(*lane_fns(res_fn, counted), starts)
    assert sizes[0] == len(starts) and sizes[-1] < len(starts)
    assert sizes == sorted(sizes, reverse=True)


def counting(jac_fn, counts):
    """The Jacobian map, adding one to ``counts[-1]`` per call."""
    def counted(Z, lanes):
        counts[-1] += 1
        return jac_fn(Z, lanes)

    return counted


def test_linear_convergence_to_a_double_root_is_not_a_stall():
    # z^2 = 0 from z = 1: every step halves z and quarters the residual, so
    # each stall window cuts it by 4^10 and the lane converges at iteration 24
    res_fn, jac_fn = (lambda Z: Z**2), (lambda Z: (2.0 * Z)[:, :, None])
    counts = [0]
    Z, ok = newton_lanes(rows_map(res_fn), counting(lambda Z, ids: jac_fn(Z), counts), np.array([[1.0]]))
    assert ok[0] and counts == [24] and Z[0, 0] == 0.5**24
    assert_lanes_match_reference(res_fn, jac_fn, np.array([[1.0], [-3.0]]))


def test_lane_that_gains_under_a_tenth_per_window_stops_at_the_checkpoint():
    # z = 0 with a Jacobian 100 times too large: every step cuts the
    # residual by 1%, 0.99^10 > 0.9 over the first window, so the lane stops
    # unconverged after 10 iterations
    res_fn, jac_fn = (lambda Z: Z), (lambda Z: np.full((len(Z), 1, 1), 100.0))
    counts = [0]
    Z, ok = newton_lanes(rows_map(res_fn), counting(lambda Z, ids: jac_fn(Z), counts), np.array([[1.0]]))
    assert not ok[0] and counts == [optimize.STALL_WINDOW]
    assert Z[0, 0] == pytest.approx(0.99**10, rel=1e-12)
    assert_lanes_match_reference(res_fn, jac_fn, np.array([[1.0], [-3.0], [1e-9]]))


def test_support_group_without_roots_stops_at_a_stall_checkpoint(monkeypatch):
    # no size-2 support of this instance has a positive root: the interval
    # exclusion rules the group out before Newton, and its 48 lanes, run
    # through newton_lanes directly, stall
    rng = np.random.default_rng([10, 3, 3, 5])
    inst = TcpInstance(Tensor(diag_dominant_data(rng, 3, 3, 0.5)), rng.uniform(-2.0, 1.0, size=3))
    calls = []
    monkeypatch.setattr(tcp, "newton_lanes", lambda *args: calls.append(args) or newton_lanes(*args))
    sols = tcp.solve_enumeration(inst, CFG)
    assert calls == []  # the size-3 group is ruled out too
    # the solution found when the size-2 group ran Newton to the end
    assert [s.x.tolist() for s in sols] == [[0.0, 0.0, 0.4794207341132934]]

    unit, _ = tcp._unit_scale(inst)
    group = list(supports_by_size(3))[1]
    data, S = stacked_subtensors(unit.A, group)
    Q = unit.q[np.array(group)]
    assert tcp._rootless(data, S, Q)[0].all()
    starts = []
    for J, qJ in zip(group, Q):
        Y0 = CFG.substream("tcp", J).uniform(0.1, 1.0, size=(tcp.NEWTON_STARTS, 2))
        heuristic = np.sqrt(np.maximum(-qJ, 0.0))
        starts.append(np.vstack([heuristic, Y0]) if np.min(heuristic) > 0 else Y0)
    owner = np.repeat(np.arange(3), [len(Y0) for Y0 in starts])
    assert owner.size == 48
    contract, jac = lane_maps(data, S, owner)

    def run() -> int:
        jacobians = [0]
        _, ok = newton_lanes(lambda Y, lanes: contract(Y, lanes) + Q[owner[lanes]][:, None, :],
                             counting(jac, jacobians), np.vstack(starts))
        assert not ok.any()
        return jacobians[0]

    assert run() <= 30
    monkeypatch.setattr(optimize, "STALL_WINDOW", optimize.NEWTON_MAX_ITER + 1)
    assert run() == optimize.NEWTON_MAX_ITER


RULE_OFF_DRAWS = [(family, m, n) for family in ("diag_dominant", "nonneg_symmetric")
                  for m in (3, 4) for n in (3, 4, 5)]


@pytest.mark.parametrize("family,m,n", RULE_OFF_DRAWS)
def test_stall_rule_changes_no_solution_or_pareto_value(monkeypatch, family, m, n):
    rng = np.random.default_rng([n, m, 99])
    data = diag_dominant_data(rng, m, n, 0.5) if family == "diag_dominant" else nonneg_symmetric_data(rng, m, n)
    inst = TcpInstance(Tensor(data), rng.uniform(-2.0, 1.0, size=n))

    def run():
        return ([s.to_jsonable() for s in tcp.solve_enumeration(inst, CFG)],
                [r.to_jsonable() for r in eigen.pareto_h_eigenvalues(inst.A, CFG)])

    default = run()
    monkeypatch.setattr(optimize, "STALL_WINDOW", optimize.NEWTON_MAX_ITER + 1)  # no checkpoint
    assert run() == default
    assert default[0] and default[1]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_jacobian_batch_matches_stacked_jacobian(m):
    rng = np.random.default_rng([17, m])
    A = Tensor(rng.uniform(-1.0, 1.0, size=(4,) * m))
    assert not A.symmetric
    X = rng.uniform(-1.0, 1.0, size=(7, 4))
    np.testing.assert_array_equal(jacobian_m1_batch(A, X), np.stack([jacobian_m1(A, x) for x in X]))
    with pytest.raises(ValueError):
        jacobian_m1_batch(A, X[:, :3])


# ---------------------------------------------------------------------------
# pattern search lanes
# ---------------------------------------------------------------------------

SMALL = RunConfig(grid=5, starts=3)


@pytest.fixture
def searches(monkeypatch):
    """Every pattern_search_min call made through the library, with its
    arguments, its results and the row count of each objective call."""
    calls = []

    def spy(batch_fn, X0, project, *args, **kwargs):
        rows = []

        def counted(X):
            rows.append(len(X))
            return batch_fn(X)

        F, X = pattern_search_min(counted, X0, project, *args, **kwargs)
        calls.append(dict(batch_fn=batch_fn, X0=np.array(X0), project=project, args=args,
                          kwargs=kwargs, F=F.copy(), X=X.copy(), rows=rows))
        return F, X

    monkeypatch.setattr(optimize, "pattern_search_min", spy)
    monkeypatch.setattr(operators, "pattern_search_min", spy)
    return calls


def assert_lanes_bit_identical(call):
    assert call["F"].shape == (len(call["X0"]),) and call["X"].shape == call["X0"].shape
    for x0, f, x in zip(call["X0"], call["F"], call["X"]):
        f_ref, x_ref = reference_pattern_search(
            call["batch_fn"], x0, call["project"], *call["args"], **call["kwargs"]
        )
        np.testing.assert_array_equal(f, f_ref)
        np.testing.assert_array_equal(x, x_ref)


def mixed_tensor(m, n, seed):
    rng = np.random.default_rng([seed, m, n])
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    data[tuple([np.arange(n)] * m)] += 0.5
    return Tensor(data)


SHAPES = [(m, n) for m in (2, 3, 4) for n in range(1, 7)]


@pytest.mark.parametrize("m,n", SHAPES)
def test_sphere_objectives_lanes_match_reference(searches, m, n):
    A = mixed_tensor(m, n, 3)
    beta(A, SMALL)  # activity objective

    def rows_max(X):
        return np.max(contract_m1_batch(A, X), axis=1)

    minimize_nonneg_sphere(rows_max, n, SMALL, "violation")
    S = symmetrize(A)
    for kind in ("H", "Z"):  # Pareto ratio objectives
        eigen._variational_seed(S, kind, SMALL)
    # a face with no free axis is the vertex alone: no search runs at n = 1
    assert len(searches) == (0 if n == 1 else 4 * n)
    for call in searches:
        assert_lanes_bit_identical(call)


@pytest.mark.parametrize("m,n", SHAPES)
def test_norm_objectives_lanes_match_reference(searches, m, n):
    A = mixed_tensor(m, n, 4)
    ops = ["T"] + (["F"] if m % 2 == 0 else [])
    for op in ops:
        for p in (1.0, 3.0, math.inf):
            estimate_norm(A, op, p, budget=5, cfg=SMALL)
    assert len(searches) == 3 * len(ops)
    for call in searches:
        assert len(call["X0"]) == 2 * n + 5
        assert_lanes_bit_identical(call)


def quadratic(center):
    return lambda X: np.sum((X - center) ** 2, axis=1)


def identity(P):
    return P


def test_single_lane_matches_reference():
    fn = quadratic(np.array([0.3, -0.7, 0.1]))
    x0 = np.array([1.0, 1.0, -1.0])
    F, X = pattern_search_min(fn, x0[None, :], identity)
    f_ref, x_ref = reference_pattern_search(fn, x0, identity)
    assert F.shape == (1,) and X.shape == (1, 3)
    assert F[0] == f_ref and np.array_equal(X[0], x_ref)


def test_lane_stops_at_max_iter():
    def fn(X):  # every sweep improves by one step
        return X[:, 0]

    X0 = np.array([[0.0, 0.0], [5.0, 1.0]])
    F, X = pattern_search_min(fn, X0, identity, max_iter=5)
    assert F.tolist() == [-1.25, 3.75]
    for x0, f, x in zip(X0, F, X):
        f_ref, x_ref = reference_pattern_search(fn, x0, identity, max_iter=5)
        assert f == f_ref and np.array_equal(x, x_ref)


def test_step_below_floor_returns_the_projected_start():
    rows = []

    def fn(X):
        rows.append(len(X))
        return np.sum(X, axis=1)

    def project(P):
        return np.clip(P, -1.0, 1.0)

    X0 = np.array([[2.0, -1.0], [0.5, 0.5], [-3.0, 4.0]])
    F, X = pattern_search_min(fn, X0, project, step0=1e-10)
    assert rows == [3]
    np.testing.assert_array_equal(X, project(X0))
    np.testing.assert_array_equal(F, np.sum(project(X0), axis=1))
    f_ref, x_ref = reference_pattern_search(fn, X0[0], project, step0=1e-10)
    assert F[0] == f_ref and np.array_equal(X[0], x_ref)


def test_tied_moves_take_the_first_index():
    def fn(X):  # +e_1 and -e_1 tie at x = 0
        return -np.abs(X[:, 1])

    F, X = pattern_search_min(fn, np.zeros((1, 2)), identity, max_iter=1)
    assert F[0] == -0.25 and X[0].tolist() == [0.0, 0.25]
    f_ref, x_ref = reference_pattern_search(fn, np.zeros(2), identity, max_iter=1)
    assert F[0] == f_ref and np.array_equal(X[0], x_ref)


def test_retired_lanes_leave_the_batch():
    fn = quadratic(np.zeros(2))
    rows = []

    def counted(X):
        rows.append(len(X))
        return fn(X)

    # the first lane starts at the minimum and only halves; the others travel
    X0 = np.array([[0.0, 0.0], [3.0, -2.0], [-7.0, 5.0]])
    pattern_search_min(counted, X0, identity)
    sweeps = rows[1:]
    assert rows[0] == 3 and sweeps[0] == 3 * 4
    assert all(r % 4 == 0 for r in sweeps)
    assert sweeps == sorted(sweeps, reverse=True) and sweeps[-1] == 4
    assert 8 in sweeps


@pytest.mark.parametrize("m", [2, 3, 4])
def test_contraction_rows_do_not_depend_on_the_batch(m):
    # what lets a lane of a big batch reproduce a lone run bit for bit, at
    # every batch size
    rng = np.random.default_rng([8, m])
    for n in range(1, 7):
        A = Tensor(rng.uniform(-1.0, 1.0, size=(n,) * m))
        for size in (999, 1200):
            X = rng.uniform(-1.0, 1.0, size=(size, n))
            rows = np.vstack([contract_m1_batch(A, x[None, :]) for x in X[:200]])
            np.testing.assert_array_equal(contract_m1_batch(A, X)[:200], rows)
        X = rng.uniform(-1.0, 1.0, size=(50, n))
        jacobians = np.stack([jacobian_m1_batch(A, x[None, :])[0] for x in X[:20]])
        np.testing.assert_array_equal(jacobian_m1_batch(A, X)[:20], jacobians)


@pytest.mark.parametrize("m,n", [(4, 6), (3, 2)])
def test_contraction_rows_do_not_depend_on_the_block(m, n):
    # rows go through the kernel a fixed number at a time; the rows on both
    # sides of every block boundary equal their one-row values
    block = tensor._BLOCK_ENTRIES // n ** (m - 1)
    rng = np.random.default_rng([9, m, n])
    A = Tensor(rng.uniform(-1.0, 1.0, size=(n,) * m))
    X = rng.uniform(-1.0, 1.0, size=(2 * block + 3, n))
    got = contract_m1_batch(A, X)
    for i in (0, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 2):
        np.testing.assert_array_equal(got[i], contract_m1_batch(A, X[i : i + 1])[0])
        np.testing.assert_array_equal(got[i], contract_m1(A, X[i]))
    np.testing.assert_array_equal(contract_m1_batch(A, X[block - 2 : block + 2]), got[block - 2 : block + 2])


@pytest.mark.parametrize("n", [5, 6])
def test_default_config_batches_stay_below_einsum_path_planning(searches, n):
    # the default budgets keep every search batch below 1000 rows at desk
    # scale, so a budget change that grows them shows here; a row's value
    # does not depend on its batch at any size (the test above)
    A = mixed_tensor(3, n, 6)
    cfg = RunConfig()
    beta(A, cfg)
    estimate_norm(A, "T", 2.0, cfg=cfg)
    eigen._variational_seed(symmetrize(A), "H", cfg)
    assert searches
    assert max(max(c["rows"]) for c in searches) < 1000


# ---------------------------------------------------------------------------
# supports of one size as one lane array
# ---------------------------------------------------------------------------


def test_supports_by_size_groups_the_nonempty_subsets():
    groups = list(supports_by_size(4))
    assert [len(g) for g in groups] == [4, 6, 4, 1]
    assert all(len(J) == size for size, g in enumerate(groups, 1) for J in g)
    assert groups[1] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("r", range(1, 7))
def test_gathered_rows_equal_per_support_kernel_rows(m, r):
    rng = np.random.default_rng([21, m, r])
    A = Tensor(rng.uniform(-1.0, 1.0, size=(7,) * m))
    group = [tuple(sorted(rng.choice(7, size=r, replace=False))) for _ in range(3)]
    subs = [principal_subtensor(A, J) for J in group]
    data, S = stacked_subtensors(A, group)
    for sub, d, s in zip(subs, data, S):  # one gather holds each sub-tensor's own values
        np.testing.assert_array_equal(d, sub.data)
        np.testing.assert_array_equal(s.reshape(sub.S.shape), sub.S)
    owner = np.array([0, 2, 1, 2, 0, 1, 1])
    contract, jacobian = lane_maps(data, S, owner)
    lanes = np.array([1, 2, 4, 5, 6])  # lanes of every sub-tensor, not all lanes
    for w in (1, 8):
        Z = rng.uniform(-1.0, 1.0, size=(lanes.size, w, r + 1))
        for Y in (Z[..., :r], np.ascontiguousarray(Z[..., :r])):  # a residual slice, or whole
            got = contract(Y, lanes)
            for i, lane in enumerate(lanes):
                np.testing.assert_array_equal(got[i], contract_m1_batch(subs[owner[lane]], Y[i]))
    Y = rng.uniform(-1.0, 1.0, size=(lanes.size, r))
    got = jacobian(Y, lanes)
    for i, lane in enumerate(lanes):
        np.testing.assert_array_equal(got[i], jacobian_m1_batch(subs[owner[lane]], Y[i : i + 1])[0])


@pytest.mark.parametrize("r", range(1, 7))
def test_gathered_rows_equal_per_support_kernel_rows_at_order_two(r):
    # order 2 takes the same unfolding rule as every other order
    test_gathered_rows_equal_per_support_kernel_rows(2, r)


def test_maps_get_the_lane_id_of_every_row():
    # lane l solves z^3 = c_l; a row evaluated under a wrong id heads for another root
    c = np.array([[1.0], [8.0], [-27.0], [0.0], [5.0]])
    Z0 = np.array([[2.0], [1.0], [-1.0], [0.5], [3.0]])
    calls = []

    def res_fn(Z, ids):
        calls.append(("res", Z.copy(), ids.copy()))
        return Z**3 - c[ids][:, None, :]

    def jac_fn(Z, ids):
        calls.append(("jac", Z.copy(), ids.copy()))
        return (3.0 * Z**2)[:, :, None]

    Z, ok = newton_lanes(res_fn, jac_fn, Z0)
    assert calls[0][0] == "res" and calls[0][2].tolist() == list(range(5))
    for kind, Zc, ids in calls:
        assert ids.ndim == 1 and len(Zc) == len(ids)
        assert np.all(np.diff(ids) > 0) and set(ids) <= set(range(5))
    assert ok[[0, 1, 2, 4]].all()
    for lane in range(5):  # a lone run with the lane's own target
        z, flag = damped_newton(lambda z: z**3 - c[lane], lambda z: 3.0 * z[:, None] ** 2,
                                Z0[lane])
        assert flag == ok[lane]
        np.testing.assert_array_equal(Z[lane], z)


def tcp_instance(m, n, seed, planted):
    """Diagonally dominant, not symmetric; a planted q gives the full
    support a positive root, a random q ~ U(-2, 1) has mixed signs."""
    rng = np.random.default_rng([seed, m, n])
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    idx = np.arange(n)
    data[tuple([idx] * m)] = np.abs(data).reshape(n, -1).sum(axis=1) + 0.5
    A = Tensor(data)
    if planted:
        q = -contract_m1_batch(A, rng.uniform(0.2, 1.0, size=(1, n)))[0]
    else:
        q = rng.uniform(-2.0, 1.0, size=n)
    return TcpInstance(A, q)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("planted", [True, False])
def test_grouped_tcp_roots_equal_per_support_reference(m, planted):
    found = 0
    for n in range(2, 7):
        inst = tcp_instance(m, n, 11, planted)
        for group in supports_by_size(n):
            if len(group[0]) == 1:  # closed form, not Newton
                continue
            got = tcp._support_roots(inst, group, CFG)
            want = [(J, y) for J in group for y in reference_support_roots(inst, J, CFG)]
            assert [J for J, _ in got] == [J for J, _ in want]
            for (_, y), (_, y_ref) in zip(got, want):
                np.testing.assert_array_equal(y, y_ref)
            found += len(got)
    assert found


@pytest.mark.parametrize("m", [3, 4])
def test_singleton_tcp_roots_are_closed_form(m):
    for n in range(2, 7):
        inst = tcp_instance(m, n, 11, planted=False)
        d, q = inst.A.diagonal(), inst.q
        got = tcp._support_roots(inst, [(j,) for j in range(n)], CFG)
        # a positive diagonal gives a root exactly where q_j < 0
        assert [J for J, _ in got] == [(j,) for j in range(n) if q[j] < 0]
        for (j,), y in got:
            assert y.tolist() == [(-q[j] / d[j]) ** (1.0 / (m - 1))]
            (y_ref,) = reference_support_roots(inst, (j,), CFG)
            np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=0)
        for j in np.flatnonzero(q > 0):
            assert reference_support_roots(inst, (j,), CFG) == []


@pytest.mark.parametrize("starts", [None, 3])
def test_starts_sets_every_multistart_budget(searches, monkeypatch, starts):
    cfg = RunConfig(starts=starts)

    def budget(default):
        return default if starts is None else starts

    newton_rows = []

    def spy(res_fn, jac_fn, Z0):
        newton_rows.append(len(Z0))
        return newton_lanes(res_fn, jac_fn, Z0)

    monkeypatch.setattr(tcp, "newton_lanes", spy)
    monkeypatch.setattr(eigen, "newton_lanes", spy)
    A = mixed_tensor(3, 2, 5)
    beta(A, cfg)  # each face: the vertex, the best grid points and the random starts
    estimate_norm(A, "T", 2.0, cfg=cfg)  # the 2n signed vertices and the random starts
    face = 1 + optimize.REFINE_TOP + budget(optimize.FACE_STARTS)
    assert [len(c["X0"]) for c in searches] == [face, face, 4 + budget(operators.NORM_STARTS)]
    tcp.solve_enumeration(TcpInstance(A, np.ones(2)), cfg)  # q > 0: no heuristic start
    eigen.h_plus_eigenpairs(A, cfg)  # the uniform start and the random starts
    assert newton_rows == [budget(tcp.NEWTON_STARTS), 1 + budget(eigen.NEWTON_STARTS)]


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("kind", ["H", "Z"])
def test_grouped_eigen_candidates_equal_per_support_reference(m, kind):
    cfg = RunConfig(starts=12)
    seeded = 0
    for n in range(2, 6):
        for A in (mixed_tensor(m, n, 12), symmetrize(mixed_tensor(m, n, 13))):
            seeds = eigen._variational_seed(A, kind, SMALL)
            got = eigen._interior_candidates(A, kind, cfg, seeds)
            assert list(got) == [J for g in supports_by_size(n) for J in g]
            for J, cands in got.items():
                if len(J) == 1:
                    continue
                seeded += J in seeds and len(J) < n  # seeded, and not alone in its group
                want = reference_eigen_candidates(
                    principal_subtensor(A, J), kind, cfg, str(J), seeds.get(J)
                )
                assert len(cands) == len(want)
                for (lam, y), (lam_ref, y_ref) in zip(cands, want):
                    assert lam == lam_ref
                    np.testing.assert_array_equal(y, y_ref)
    assert seeded  # a variational seed rode along in some support's starts


def test_first_of_clusters_keeps_both_ends_of_a_chain():
    # b is within tol of a and of c, but a and c are 1.2 apart: b joins a's
    # cluster and c starts its own
    rows = np.array([[0.0, 0.0], [0.6, 0.1], [1.2, 0.0]])
    assert first_of_clusters(rows, 1.0) == [0, 2]
    assert first_of_clusters(rows[::-1], 1.0) == [0, 2]


def test_first_of_clusters_keeps_row_order_and_accepts_no_rows():
    rows = [np.array([5.0]), np.array([0.0]), np.array([5.0 + 1e-9]), np.array([1e-7])]
    assert first_of_clusters(rows, 1e-6) == [0, 1]
    assert first_of_clusters(rows, 0.0) == [0, 1, 2, 3]
    assert first_of_clusters([], 1e-6) == []
    assert first_of_clusters(np.empty((0, 3)), 1e-6) == []


def test_solve_stack_matches_one_solve_per_matrix():
    rng = np.random.default_rng(20)
    J = rng.standard_normal((200, 5, 5))
    B = rng.standard_normal((200, 5, 2))
    X, usable = solve_stack(J, B)
    assert usable.all()
    for Jk, Bk, Xk in zip(J, B, X):
        np.testing.assert_array_equal(Xk, np.linalg.solve(Jk, Bk))
    Y, usable = solve_stack(J, np.eye(5))
    assert usable.all()
    np.testing.assert_array_equal(Y, np.linalg.inv(J))


def test_solve_stack_flags_singular_and_non_finite_members():
    rng = np.random.default_rng(21)
    J = rng.standard_normal((5, 2, 2))
    J[1] = [[1.0, 1.0], [1.0, 1.0]]  # exactly singular
    J[3, 0, 1] = np.nan
    B = rng.standard_normal((5, 2, 1))
    X, usable = solve_stack(J, B)
    assert usable.tolist() == [True, False, True, False, True]
    np.testing.assert_array_equal(X[~usable], B[~usable])
    for k in np.flatnonzero(usable):
        np.testing.assert_array_equal(X[k], np.linalg.solve(J[k], B[k]))


def test_least_point_ignores_the_order_of_a_chain_of_near_ties():
    # each value lies within 1e-12 of the next, but the chain spans 2.4e-12:
    # only the first two tie with the least value, and of them [1, 0] is the
    # lexicographically smaller; [0, 0] lies beyond the tolerance
    values = [0.0, 0.8e-12, 1.6e-12, 2.4e-12]
    points = [np.array([2.0, 0.0]), np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.array([0.0, 0.0])]
    for order in itertools.permutations(range(4)):
        i = least_point([values[k] for k in order], [points[k] for k in order], 1e-12)
        assert points[order[i]].tolist() == [1.0, 0.0]

"""The lane-masked Newton kernel against a one-start-at-a-time reference."""

import numpy as np
import pytest

from tcpkit import RunConfig, Tensor
from tcpkit.optimize import damped_newton, newton_lanes
from tcpkit.tensor import contract_m1_batch, jacobian_m1, jacobian_m1_batch

from oracles import reference_newton

CFG = RunConfig()


def one_row(batch_fn):
    """The batch map applied to a single iterate."""
    return lambda z: batch_fn(z[None, :])[0]


def assert_lanes_match_reference(res_fn, jac_fn, Z0):
    Z, ok = newton_lanes(res_fn, jac_fn, Z0, CFG)
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
    Z, _ = newton_lanes(res_fn, jac_fn, Z0, CFG)
    assert Z[0, 0] == 1e-160  # a failed lane keeps its last iterate


def test_single_lane_and_damped_newton_agree_with_reference():
    res_fn, jac_fn, starts = tensor_system(3, 3, seed=9)
    for z0 in starts[:6]:
        z_ref, ok_ref = reference_newton(one_row(res_fn), one_row(jac_fn), z0)
        Z, ok = newton_lanes(res_fn, jac_fn, z0[None, :], CFG)
        z, flag = damped_newton(one_row(res_fn), one_row(jac_fn), z0, CFG)
        assert bool(ok[0]) == flag == ok_ref and isinstance(flag, bool)
        np.testing.assert_array_equal(Z[0], z)
        np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-10)


def test_line_search_tries_every_halving_in_blocks():
    res_fn, jac_fn = cube_root_system()
    rows = []

    def counted(Z):
        rows.append(len(Z))
        return res_fn(Z)

    _, ok = newton_lanes(counted, jac_fn, np.array([[0.0]]), CFG)
    # the start, then t = 1 alone and t = 1/2 .. 2^-39 eight at a time
    assert rows == [1, 1, 8, 8, 8, 8, 7] and not ok[0]


def test_jacobians_are_taken_on_running_lanes_only():
    res_fn, jac_fn, starts = tensor_system(4, 3, seed=2)
    sizes = []

    def counted(Y):
        sizes.append(len(Y))
        return jac_fn(Y)

    newton_lanes(res_fn, counted, starts, CFG)
    assert sizes[0] == len(starts) and sizes[-1] < len(starts)
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_jacobian_batch_matches_stacked_jacobian(m):
    rng = np.random.default_rng([17, m])
    A = Tensor(rng.uniform(-1.0, 1.0, size=(4,) * m))
    assert not A.symmetric
    X = rng.uniform(-1.0, 1.0, size=(7, 4))
    np.testing.assert_allclose(
        jacobian_m1_batch(A, X), np.stack([jacobian_m1(A, x) for x in X]), rtol=0, atol=1e-12
    )
    with pytest.raises(ValueError):
        jacobian_m1_batch(A, X[:, :3])

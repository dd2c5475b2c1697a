"""Operator actions, closed-form norm bounds, and empirical-estimate validity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpkit import (
    OP_ROOT,
    OP_SCALED,
    GeneratorSpec,
    Tensor,
    apply_operator,
    bounds,
    diagonal_tensor,
    estimate_norm,
    identity_tensor,
    norm_bound,
    operators,
)
from tcpkit.config import RunConfig
from tcpkit.operators import _apply_batch, _pnorm_rows
from tcpkit.optimize import pattern_search_min


def random_tensor(m, n, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-1.0, 1.0, size=(n,) * m))


def vec_norm(v, p):
    if math.isinf(p):
        return float(np.abs(v).max())
    return float((np.abs(v) ** p).sum() ** (1.0 / p))


# --- operator actions -------------------------------------------------------


def test_scaled_map_on_unit_vector():
    np.testing.assert_allclose(apply_operator(identity_tensor(3, 2), OP_SCALED, [1.0, 0.0]), [1.0, 0.0])


def test_scaled_map_zero_branch():
    A = random_tensor(3, 3, seed=1)
    np.testing.assert_array_equal(apply_operator(A, OP_SCALED, np.zeros(3)), np.zeros(3))


def test_scaled_map_positive_homogeneity():
    A = random_tensor(3, 3, seed=2)
    x = np.random.default_rng(3).normal(size=3)
    np.testing.assert_allclose(
        apply_operator(A, OP_SCALED, 2.0 * x), 2.0 * apply_operator(A, OP_SCALED, x), rtol=1e-12
    )


def test_root_map_is_identity_on_unit_tensor():
    np.testing.assert_allclose(apply_operator(identity_tensor(4, 2), OP_ROOT, [2.0, 3.0]), [2.0, 3.0])


def test_root_map_takes_odd_real_roots():
    # at x = (1, 1) the contraction of diag(-8, 27) is (-8, 27)
    A = diagonal_tensor([-8.0, 27.0], 4)
    np.testing.assert_allclose(apply_operator(A, OP_ROOT, [1.0, 1.0]), [-2.0, 3.0])


def test_root_map_positive_homogeneity():
    A = random_tensor(4, 2, seed=4)
    x = np.random.default_rng(5).normal(size=2)
    np.testing.assert_allclose(
        apply_operator(A, OP_ROOT, 3.0 * x), 3.0 * apply_operator(A, OP_ROOT, x), rtol=1e-12
    )


def test_root_map_rejects_odd_order():
    with pytest.raises(ValueError, match="even order"):
        apply_operator(random_tensor(3, 2, seed=6), OP_ROOT, [1.0, 1.0])
    with pytest.raises(ValueError):
        norm_bound(random_tensor(3, 2, seed=6), OP_ROOT, 2.0)


def test_unknown_operator_token():
    for m in (2, 3, 4):
        with pytest.raises(ValueError, match="unknown operator token"):
            apply_operator(identity_tensor(m, 2), "Q", [1.0, 1.0])


# --- closed-form bounds ------------------------------------------------------


def test_bound_scaled_inf_identity():
    assert norm_bound(identity_tensor(3, 2), OP_SCALED, math.inf) == pytest.approx(1.0)


def test_bound_root_inf_identity():
    assert norm_bound(identity_tensor(4, 2), OP_ROOT, math.inf) == pytest.approx(1.0)


def test_bound_scaled_p2_identity():
    got = norm_bound(identity_tensor(4, 3), OP_SCALED, 2.0)
    assert got == pytest.approx(3.0 * math.sqrt(3.0))


def test_bound_rejects_bad_p():
    with pytest.raises(ValueError):
        norm_bound(identity_tensor(2, 2), OP_SCALED, 0.5)


# --- empirical estimates ------------------------------------------------------


def test_estimate_scaled_inf_identity_hits_vertex():
    report = estimate_norm(identity_tensor(3, 2), OP_SCALED, math.inf, budget=8)
    assert report.empirical_norm == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(report.witness)) == pytest.approx(1.0, abs=1e-9)


def test_estimate_root_inf_identity():
    report = estimate_norm(identity_tensor(4, 3), OP_ROOT, math.inf, budget=8)
    assert report.empirical_norm == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("op,m", [(OP_SCALED, 3), (OP_SCALED, 4), (OP_ROOT, 4)])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_estimate_never_exceeds_bound(op, m, p):
    for seed in range(3):
        A = random_tensor(m, 3, seed=seed)
        report = estimate_norm(A, op, p, budget=8)
        assert report.empirical_norm <= report.closed_form_bound + 1e-8


def test_bound_dominates_sampled_action():
    # the certified direction of the operator-norm inequality
    rng = np.random.default_rng(12)
    for op, m in [(OP_SCALED, 3), (OP_ROOT, 4)]:
        A = random_tensor(m, 3, seed=20 + m)
        for p in (1.0, 2.0, math.inf):
            bound = norm_bound(A, op, p)
            for _ in range(50):
                x = rng.normal(size=3)
                assert vec_norm(apply_operator(A, op, x), p) <= bound * vec_norm(x, p) + 1e-8


def test_p_and_inf_estimates_sandwich():
    # n^(-1/p) * est_inf <= bound_p  and  est_p <= n^(1/p) * bound_inf
    n = 3
    for op, m in [(OP_SCALED, 3), (OP_ROOT, 4)]:
        A = random_tensor(m, n, seed=m)
        est_inf = estimate_norm(A, op, math.inf, budget=8).empirical_norm
        bound_inf = norm_bound(A, op, math.inf)
        for p in (1.0, 2.0):
            est_p = estimate_norm(A, op, p, budget=8).empirical_norm
            assert n ** (-1.0 / p) * est_inf <= norm_bound(A, op, p) + 1e-8
            assert est_p <= n ** (1.0 / p) * bound_inf + 1e-8


def test_operator_homogeneity_at_random_points():
    rng = np.random.default_rng(77)
    A_t = random_tensor(3, 3, seed=50)
    A_f = random_tensor(4, 3, seed=51)
    for _ in range(50):
        x = rng.normal(size=3)
        t = float(rng.uniform(0.1, 5.0))
        np.testing.assert_allclose(
            apply_operator(A_t, OP_SCALED, t * x), t * apply_operator(A_t, OP_SCALED, x), rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            apply_operator(A_f, OP_ROOT, t * x), t * apply_operator(A_f, OP_ROOT, x), rtol=1e-10, atol=1e-12
        )


@settings(max_examples=20, deadline=None)
@given(
    t=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_scaled_map_homogeneity_property(t, seed):
    rng = np.random.default_rng(seed)
    A = Tensor(rng.uniform(-1.0, 1.0, size=(3, 3, 3)))
    x = rng.normal(size=3)
    np.testing.assert_allclose(
        apply_operator(A, OP_SCALED, t * x), t * apply_operator(A, OP_SCALED, x), rtol=1e-9, atol=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(
    t=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_root_map_homogeneity_property(t, seed):
    rng = np.random.default_rng(seed)
    A = Tensor(rng.uniform(-1.0, 1.0, size=(2, 2, 2, 2)))
    x = rng.normal(size=2)
    np.testing.assert_allclose(
        apply_operator(A, OP_ROOT, t * x), t * apply_operator(A, OP_ROOT, x), rtol=1e-9, atol=1e-12
    )


@pytest.mark.parametrize("op,m,seed", [(OP_SCALED, 3, 0), (OP_SCALED, 4, 91), (OP_ROOT, 4, 92)])
@pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
def test_estimates_are_exact_under_power_of_two_scaling(op, m, seed, p):
    # every k is a multiple of m - 1, so the search runs on the same unit-scale
    # tensor and T maps back by 2^k, F by 2^(k/(m-1)); at the caller's scale,
    # seed 0 at m3 read 28% low at p = inf and 2^-40
    A = random_tensor(m, 3, seed)
    base = estimate_norm(A, op, p)
    for k in (-60, -30, -18, 18, 60):
        got = estimate_norm(A.scale(2.0**k), op, p)
        assert got.empirical_norm == math.ldexp(base.empirical_norm, k if op == OP_SCALED else k // (m - 1))
        np.testing.assert_array_equal(got.witness, base.witness)


def test_estimate_is_seed_reproducible():
    A = random_tensor(3, 3, seed=60)
    cfg = RunConfig(seed=5)
    r1 = estimate_norm(A, OP_SCALED, 2.0, budget=8, cfg=cfg)
    r2 = estimate_norm(A, OP_SCALED, 2.0, budget=8, cfg=cfg)
    assert r1.empirical_norm == r2.empirical_norm
    np.testing.assert_array_equal(r1.witness, r2.witness)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_witness_sign_is_fixed_by_its_largest_component(m):
    # op(-x) = +-op(x) exactly, so the sign of a witness is a convention: its
    # largest-magnitude component is positive, and -witness has the same norm
    # to the bit
    for seed in range(4):
        A = random_tensor(m, 3, seed=70 + seed)
        for op in [OP_SCALED] + ([OP_ROOT] if m % 2 == 0 else []):
            for p in (1.0, 2.0, math.inf):
                w = estimate_norm(A, op, p, budget=8).witness
                assert w[np.argmax(np.abs(w))] > 0
                assert vec_norm(apply_operator(A, op, -w), p) == vec_norm(apply_operator(A, op, w), p)


def test_witness_sign_does_not_follow_rounding_noise():
    # +-x tie within 1e-12 at every p here; a lexicographic tie-break picked
    # [-0.209, -0.978] at p = 2 and [-1, -1] at p = inf, and [-1.7e-15, 1] at
    # p = 1, where the rounding noise of the first component decided
    A = Tensor(np.array([[-0.22623134115000454, -0.9684729140018429],
                         [0.1830275204575862, -0.1306955762227009]]))
    for p in (1.0, 2.0, math.inf):
        w = estimate_norm(A, OP_SCALED, p).witness
        assert w[1] > 0.9


# --- structured paths ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_order2_estimates_are_the_exact_norms(monkeypatch, n):
    # no random start: a substream draw would call None and raise
    monkeypatch.setattr(RunConfig, "substream", None)
    for seed in range(4):
        M = np.random.default_rng([seed, n, 2]).uniform(-1.0, 1.0, size=(n, n))
        want = {
            1.0: np.abs(M).sum(axis=0).max(),
            2.0: np.linalg.svd(M)[1][0],
            math.inf: np.abs(M).sum(axis=1).max(),
        }
        for op in (OP_SCALED, OP_ROOT):
            for p, norm in want.items():
                got = estimate_norm(Tensor(M), op, p).empirical_norm
                assert abs(got - norm) <= 4 * np.spacing(norm)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_every_path_reports_the_norm_at_its_witness(m):
    # order 2 at p in {1, 2, inf} is exact, T at p = 2 above order 2 takes the
    # power ascent, and every other case the pattern ascent
    for seed in range(3):
        A = random_tensor(m, 3, seed=80 + seed)
        for op in [OP_SCALED] + ([OP_ROOT] if m % 2 == 0 else []):
            for p in (1.0, 2.0, 3.0, math.inf):
                report = estimate_norm(A, op, p, budget=8)
                image = apply_operator(A, op, report.witness)
                assert _pnorm_rows(image[None, :], p)[0] == report.empirical_norm
                assert _pnorm_rows(image, p) == report.empirical_norm


@pytest.mark.parametrize("p", [3.0, 4.0, 4.0 / 3.0])
def test_a_vector_norm_equals_its_row_of_a_batch(p):
    # numpy's scalar ** and its array loop can round a root differently
    X = np.random.default_rng(11).uniform(-1.0, 1.0, (400, 5))
    rows = _pnorm_rows(X, p)
    assert all(_pnorm_rows(x, p) == row for x, row in zip(X, rows))


def test_power_ascent_is_no_lower_than_the_pattern_ascent(monkeypatch):
    # on the tensors verify_bounds draws; on uniform nonsymmetric tensors the
    # two ascents can end at different local maxima, either one the higher
    starts, ascent = [], operators._power_ascent

    def spy(A, X):
        starts.append(X)
        return ascent(A, X)

    monkeypatch.setattr(operators, "_power_ascent", spy)

    def project(P):
        return P / np.linalg.norm(P, axis=1)[:, None]

    for family in ("identity_shift", "diag_dominant", "random_symmetric_copositive"):
        for m in (3, 4):
            for n in range(2, 7):
                for seed in range(2):
                    spec = GeneratorSpec(family, m, n, seed=seed)
                    A = bounds._draw_tensor(spec, np.random.default_rng([seed, m, n]))
                    got = estimate_norm(A, OP_SCALED, 2.0, budget=8).empirical_norm
                    vals, _ = pattern_search_min(
                        lambda X: -_pnorm_rows(_apply_batch(A, OP_SCALED, X), 2.0), starts[-1], project
                    )
                    assert got >= -vals.min() * (1 - 1e-12)

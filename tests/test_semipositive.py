"""Activity margin, classification verdicts, copositivity, and monotonicity laws."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpkit import (
    NOT_SEMI_POSITIVE,
    OP_ROOT,
    OP_SCALED,
    SEMI_POSITIVE_ONLY,
    STRICTLY_SEMI_POSITIVE,
    UNDETERMINED,
    Tensor,
    beta,
    classify,
    contract_m1,
    diagonal_tensor,
    identity_tensor,
    is_copositive,
    norm_bound,
    principal_subtensor,
    symmetrize,
)
from tcpkit.config import RunConfig
from tcpkit.semipositive import _violation_search
from oracles import beta_grid_oracle, classify_grid_oracle, draw_decisive_tensor

OFFDIAG = Tensor(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def random_tensor(m, n, seed, low=-1.0, high=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(low, high, size=(n,) * m))


def semi_positive_sample(seed):
    """Nonnegative entries (zero diagonal allowed): semi-positive by sign."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 4))
    data = rng.uniform(0.0, 1.0, size=(n,) * m)
    if seed % 2 == 0:
        idx = np.arange(n)
        data[tuple([idx] * m)] = 0.0
    return Tensor(data)


# --- margin closed forms -----------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_margin_of_identity_is_one(m, n):
    assert beta(identity_tensor(m, n)).value == pytest.approx(1.0, abs=1e-6)


def test_margin_of_diagonal_is_min_entry():
    assert beta(diagonal_tensor([2.0, 5.0], 4)).value == pytest.approx(2.0, abs=1e-6)
    rng = np.random.default_rng(5)
    for _ in range(5):
        d = rng.uniform(0.2, 4.0, size=3)
        assert beta(diagonal_tensor(d, 3)).value == pytest.approx(d.min(), abs=1e-6)


def test_margin_negative_off_diagonal_matrix():
    res = beta(OFFDIAG)
    assert res.value == pytest.approx(-1.0, abs=1e-6)
    np.testing.assert_allclose(res.argmin, [1.0, 1.0], atol=1e-6)


def test_margin_value_equals_objective_at_argmin():
    for seed in range(5):
        A = random_tensor(3, 3, seed=seed)
        res = beta(A)
        rows = contract_m1(A, res.argmin)
        assert res.value == pytest.approx(float(np.max(res.argmin * rows)), abs=1e-10)
        assert np.max(res.argmin) == pytest.approx(1.0, abs=1e-12)
        assert np.min(res.argmin) >= 0.0


@pytest.mark.parametrize("seed", range(6))
def test_margin_matches_grid_oracle(seed):
    m = 2 + seed % 2
    A = random_tensor(m, 2, seed=100 + seed)
    got = beta(A).value
    want = beta_grid_oracle(A.data, points=41)
    # the oracle only sees grid points, so it can only overshoot
    assert got <= want + 1e-9
    assert got == pytest.approx(want, abs=0.02)


EXACT_SCALES = (-60, -30, -18, 18, 60)  # multiples of 6, so of every m - 1


def baseline_margin_tensor():
    """m3 n4, U(-1, 1) entries with 2.5 added to the diagonal: its least-point
    ties once broke differently at 2^-30 and 2^-40."""
    data = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 4, 4))
    data[np.diag_indices(4, 3)] += 2.5
    return Tensor(data)


def test_margin_scale_equivariance():
    A = random_tensor(3, 3, seed=42)
    base = beta(A).value
    for t in (0.5, 2.0, 7.0):
        assert beta(A.scale(t)).value == pytest.approx(t * base, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("A", [random_tensor(3, 3, seed=42), baseline_margin_tensor()])
def test_margin_is_exact_under_power_of_two_scaling(A):
    # the search runs on the same unit-scale tensor, and the value maps back exactly
    base = beta(A)
    for k in EXACT_SCALES:
        got = beta(A.scale(2.0**k))
        assert got.value == math.ldexp(base.value, k)
        np.testing.assert_array_equal(got.argmin, base.argmin)


@pytest.mark.parametrize("A", [random_tensor(3, 3, seed=1), baseline_margin_tensor()])
def test_violation_search_is_exact_under_power_of_two_scaling(A):
    value, witness = _violation_search(A, RunConfig())
    for k in EXACT_SCALES:
        got, got_witness = _violation_search(A.scale(2.0**k), RunConfig())
        assert got == math.ldexp(value, k)
        np.testing.assert_array_equal(got_witness, witness)


@settings(max_examples=15, deadline=None)
@given(
    d=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=2, max_size=3),
    m=st.sampled_from([2, 3, 4]),
)
def test_margin_of_diagonal_property(d, m):
    assert beta(diagonal_tensor(d, m)).value == pytest.approx(min(d), abs=1e-6)


def test_margin_is_deterministic():
    A = random_tensor(3, 3, seed=7)
    r1, r2 = beta(A), beta(A)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.argmin, r2.argmin)


# --- classification -----------------------------------------------------------


def test_classify_identity_strict():
    assert classify(identity_tensor(3, 2)).verdict == STRICTLY_SEMI_POSITIVE


def test_classify_zero_tensor_weak():
    cls = classify(Tensor(np.zeros((2, 2, 2))))
    assert cls.verdict == SEMI_POSITIVE_ONLY
    assert cls.beta.value == pytest.approx(0.0, abs=1e-9)


def test_classify_off_diagonal_negative():
    cls = classify(OFFDIAG)
    assert cls.verdict == NOT_SEMI_POSITIVE
    np.testing.assert_allclose(cls.counterexample, [1.0, 1.0], atol=1e-6)


def test_classify_detects_boundary_supported_violation():
    # the margin is 0 here, but the vector (0, 1) violates the definition
    A = Tensor(np.array([[0.0, 0.0], [0.0, -1.0]]))
    cls = classify(A)
    assert cls.verdict == NOT_SEMI_POSITIVE
    assert cls.counterexample is not None


@pytest.mark.parametrize("d,verdict", [
    (-5e-6, NOT_SEMI_POSITIVE),  # the margin itself is below -tol
    (-5e-7, UNDETERMINED),       # the violation search's best is within (-tol, -tol / 10)
    (-5e-8, SEMI_POSITIVE_ONLY),
])
def test_near_zero_violations_take_the_three_verdicts(d, verdict):
    # at x = e_2 the one active row is d; in the last two cases the margin
    # is above -tol, which leaves the verdict to the violation search
    assert classify(diagonal_tensor([1.0, d], 3)).verdict == verdict


@pytest.mark.parametrize("A", [baseline_margin_tensor(), OFFDIAG, diagonal_tensor([1.0, -5e-7], 3)],
                         ids=["strict", "not", "undetermined"])
def test_verdicts_do_not_depend_on_a_power_of_two_scale(A):
    # tol is read at unit scale, so A and 2^k A get the same verdict
    verdict = classify(A).verdict
    for k in EXACT_SCALES:
        assert classify(A.scale(2.0**k)).verdict == verdict, k


def test_counterexample_certificate_rows_negative():
    for A in (OFFDIAG, Tensor(np.array([[0.0, 0.0], [0.0, -1.0]]))):
        cls = classify(A)
        x = cls.counterexample
        rows = contract_m1(A, x)
        active = x > 1e-12
        assert np.all(rows[active] < -1e-6)


@pytest.mark.parametrize("seed", range(15))
def test_classify_matches_definition_grid_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    A = Tensor(draw_decisive_tensor(rng))
    assert classify(A).verdict == classify_grid_oracle(A.data, points=41)


# --- copositivity --------------------------------------------------------------


def test_identity_strictly_copositive():
    assert is_copositive(identity_tensor(4, 2), strict=True)


def test_symmetrized_off_diagonal_not_copositive():
    S = symmetrize(OFFDIAG)
    assert not is_copositive(S, strict=False)


@pytest.mark.parametrize("A,strict", [(identity_tensor(4, 2), True), (symmetrize(OFFDIAG), False)])
def test_copositivity_does_not_depend_on_a_power_of_two_scale(A, strict):
    verdict = is_copositive(A, strict=strict)
    for k in EXACT_SCALES:
        assert is_copositive(A.scale(2.0**k), strict=strict) == verdict, k


def test_copositivity_requires_symmetry():
    with pytest.raises(ValueError):
        is_copositive(random_tensor(3, 2, seed=1))


@pytest.mark.parametrize("seed", range(8))
def test_copositivity_agrees_with_classification_when_symmetric(seed):
    rng = np.random.default_rng(500 + seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 4))
    data = rng.uniform(0.0, 1.0, size=(n,) * m)
    idx = np.arange(n)
    S = symmetrize(Tensor(data))
    data2 = S.data.copy()
    data2[tuple([idx] * m)] += rng.uniform(0.3, 1.0, size=n)
    A = Tensor(data2)
    assert A.symmetric
    assert classify(A).verdict == STRICTLY_SEMI_POSITIVE
    assert is_copositive(A, strict=True)


# --- monotonicity and boundedness laws -----------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_margin_monotone_under_diagonal_shift(seed):
    A = semi_positive_sample(seed)
    rng = np.random.default_rng(1000 + seed)
    d = rng.uniform(0.0, 2.0, size=A.n)
    shifted = A.add(diagonal_tensor(d, A.m))
    assert beta(A).value <= beta(shifted).value + 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_margin_monotone_under_principal_restriction(seed):
    A = semi_positive_sample(seed)
    base = beta(A).value
    for size in range(1, A.n + 1):
        for J in itertools.combinations(range(A.n), size):
            assert base <= beta(principal_subtensor(A, J)).value + 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_margin_bounded_by_operator_norms(seed):
    A = semi_positive_sample(seed)
    val = beta(A).value
    assert val <= A.n ** ((A.m - 2) / 2.0) * norm_bound(A, OP_SCALED, math.inf) + 1e-8
    if A.m % 2 == 0:
        assert val <= norm_bound(A, OP_ROOT, math.inf) ** (A.m - 1) + 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_margin_at_most_min_diagonal(seed):
    A = semi_positive_sample(seed)
    assert beta(A).value <= float(A.diagonal().min()) + 1e-8


def test_strict_tensors_have_positive_diagonal_and_a_positive_row_sum():
    rng = np.random.default_rng(9)
    for _ in range(5):
        data = rng.uniform(-0.2, 1.0, size=(3, 3, 3))
        idx = np.arange(3)
        data[tuple([idx] * 3)] = np.abs(data[tuple([idx] * 3)]) + 2.5
        A = Tensor(data)
        if classify(A).verdict != STRICTLY_SEMI_POSITIVE:
            continue
        assert np.all(A.diagonal() > 0)
        row_sums = A.data.reshape(A.n, -1).sum(axis=1)
        assert np.max(row_sums) > 0


def test_degenerate_matrix_order_supported():
    # order 2 is the linear-complementarity specialization
    M = Tensor(np.array([[2.0, -0.5], [-0.5, 3.0]]))
    assert classify(M).verdict == STRICTLY_SEMI_POSITIVE


def test_config_grid_override():
    cfg = RunConfig(grid=5)
    res = beta(identity_tensor(3, 2), cfg)
    assert res.grid_resolution == 5
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.certified_by == "grid+refine"


@pytest.mark.parametrize("field,value", [
    ("tol", -2.0), ("tol", float("nan")), ("tol", float("inf")), ("tol", "0.1"), ("tol", True),
    ("grid", -3), ("grid", 2.5), ("grid", True), ("starts", -1), ("starts", "3"),
])
def test_run_config_rejects_values_outside_its_domain(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})


def test_run_config_accepts_its_domain():
    cfg = RunConfig(tol=0, grid=0, starts=0)
    assert (cfg.tol, cfg.grid, cfg.starts) == (0, 0, 0)
    # beta of diag(-1, -1) is -1: with tol=-2 the verdict would read strict
    assert classify(diagonal_tensor([-1.0, -1.0], 3), RunConfig(tol=0.0)).verdict == NOT_SEMI_POSITIVE

"""Degenerate dimensions, scaled-up magnitudes, and higher orders."""

import numpy as np
import pytest

from tcpkit import (
    Tensor,
    TcpInstance,
    beta,
    classify,
    contract_m1,
    delta_h_plus,
    diagonal_tensor,
    distinct_values,
    h_plus_eigenpairs,
    identity_tensor,
    pareto_h_eigenvalues,
    pareto_z_eigenvalues,
    solve_enumeration,
    solve_iterative,
    z_plus_eigenpairs,
)
from tcpkit.config import RunConfig
from oracles import naive_contract_m1

FAST = RunConfig(starts=12)


# --- one-dimensional tensors ---------------------------------------------------


def test_dimension_one_margin_is_diagonal_entry():
    A = diagonal_tensor([3.5], 4)
    assert beta(A, FAST).value == pytest.approx(3.5, abs=1e-9)
    assert classify(A, FAST).verdict == "strictly_semi_positive"
    assert classify(diagonal_tensor([-2.0], 3), FAST).verdict == "not_semi_positive"


def test_dimension_one_eigen_everything_is_the_entry():
    A = diagonal_tensor([2.25], 3)
    for fn in (h_plus_eigenpairs, z_plus_eigenpairs, pareto_h_eigenvalues):
        assert distinct_values(fn(A, FAST)) == pytest.approx([2.25], abs=1e-10)
    assert delta_h_plus(A, FAST).value == pytest.approx(2.25)
    assert not delta_h_plus(A, FAST).heuristic
    assert distinct_values(pareto_z_eigenvalues(diagonal_tensor([2.25], 4), FAST)) == pytest.approx([2.25])


def test_dimension_one_complementarity_is_a_scalar_root():
    inst = TcpInstance(diagonal_tensor([2.0], 3), np.array([-8.0]))
    (sol,) = solve_enumeration(inst, FAST)
    np.testing.assert_allclose(sol.x, [2.0], atol=1e-10)
    np.testing.assert_allclose(solve_iterative(inst, FAST).x, [2.0], atol=1e-8)


# --- scaled magnitudes ----------------------------------------------------------


def test_large_scale_diagonal_spectrum():
    recs = h_plus_eigenpairs(diagonal_tensor([30.0, 50.0], 4), FAST)
    assert distinct_values(recs) == pytest.approx([30.0, 50.0], abs=1e-7)


def test_large_scale_complementarity():
    A = identity_tensor(3, 3).scale(40.0)
    inst = TcpInstance(A, np.array([-90.0, -10.0, 4.0]))
    (sol,) = solve_enumeration(inst, FAST)
    np.testing.assert_allclose(sol.x, [1.5, 0.5, 0.0], atol=1e-8)


def test_large_scale_pareto_values_scale_linearly():
    base = distinct_values(pareto_z_eigenvalues(identity_tensor(4, 2), FAST))
    scaled = distinct_values(pareto_z_eigenvalues(identity_tensor(4, 2).scale(25.0), FAST))
    assert scaled == pytest.approx([25.0 * v for v in base], rel=1e-8)


# --- order five -----------------------------------------------------------------


def test_order_five_contraction_matches_oracle():
    rng = np.random.default_rng(5)
    A = Tensor(rng.uniform(-1.0, 1.0, size=(2,) * 5))
    x = rng.normal(size=2)
    np.testing.assert_allclose(contract_m1(A, x), naive_contract_m1(A.data, x), atol=1e-12)


def test_order_five_margin_and_orthant_eigenvalues():
    A = diagonal_tensor([2.0, 3.0], 5)
    assert beta(A, FAST).value == pytest.approx(2.0, abs=1e-6)
    assert distinct_values(h_plus_eigenpairs(A, FAST)) == pytest.approx([2.0, 3.0], abs=1e-8)
    with pytest.raises(ValueError):
        pareto_z_eigenvalues(A, FAST)

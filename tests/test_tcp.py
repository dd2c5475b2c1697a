"""Complementarity solving: support enumeration, semismooth Newton, certificates."""

import itertools

import numpy as np
import pytest

from tcpkit import (
    NonConvergenceError,
    Tensor,
    TcpInstance,
    diagonal_tensor,
    identity_tensor,
    solve_enumeration,
    solve_iterative,
    verify_solution,
)
from tcpkit.bounds import GeneratorSpec, generate
from tcpkit.config import RunConfig
from oracles import lemke_lcp

FAST = RunConfig(starts=8)


def test_identity_single_negative_component():
    inst = TcpInstance(identity_tensor(3, 2), np.array([-8.0, 1.0]))
    sols = solve_enumeration(inst, FAST)
    assert len(sols) == 1
    np.testing.assert_allclose(sols[0].x, [2.0 * np.sqrt(2.0), 0.0], atol=1e-9)
    np.testing.assert_allclose(sols[0].w, [0.0, 1.0], atol=1e-9)
    assert sols[0].support == (0,)


def test_nonnegative_offset_gives_zero_solution():
    inst = TcpInstance(identity_tensor(3, 2), np.array([0.5, 2.0]))
    sols = solve_enumeration(inst, FAST)
    assert len(sols) == 1
    np.testing.assert_array_equal(sols[0].x, np.zeros(2))


def test_matrix_instance_scalar_per_coordinate():
    inst = TcpInstance(Tensor(np.eye(2)), np.array([-1.0, 2.0]))
    sols = solve_enumeration(inst, FAST)
    assert len(sols) == 1
    np.testing.assert_allclose(sols[0].x, [1.0, 0.0], atol=1e-10)


def test_diagonal_higher_order():
    inst = TcpInstance(diagonal_tensor([2.0, 5.0], 4), np.array([-2.0, -5.0]))
    sols = solve_enumeration(inst, FAST)
    assert any(np.allclose(s.x, [1.0, 1.0], atol=1e-9) for s in sols)


def test_iterative_matches_enumeration_on_examples():
    for A, q in [
        (identity_tensor(3, 2), np.array([-8.0, 1.0])),
        (diagonal_tensor([2.0, 5.0], 4), np.array([-2.0, -5.0])),
        (Tensor(np.eye(2)), np.array([-1.0, 2.0])),
    ]:
        inst = TcpInstance(A, q)
        enum = solve_enumeration(inst, FAST)
        it = solve_iterative(inst, FAST)
        assert any(np.max(np.abs(it.x - s.x)) <= 1e-6 for s in enum)


def test_iterative_zero_offset_fixed_point():
    inst = TcpInstance(identity_tensor(3, 2), np.zeros(2))
    sol = solve_iterative(inst, FAST)
    np.testing.assert_allclose(sol.x, np.zeros(2), atol=1e-9)


def test_verify_solution_examples():
    inst = TcpInstance(identity_tensor(3, 2), np.array([-8.0, 1.0]))
    assert verify_solution(inst, [2.0 * np.sqrt(2.0), 0.0]).ok
    rec = verify_solution(inst, [1.0, 0.0])
    assert not rec.ok
    assert rec.dual == pytest.approx(-7.0)
    rec = verify_solution(inst, [-0.5, 0.0])
    assert not rec.ok and rec.primal == pytest.approx(-0.5)


def test_every_returned_solution_passes_verification():
    rng = np.random.default_rng(1)
    for seed in range(6):
        spec = GeneratorSpec("diag_dominant", int(rng.integers(2, 5)), 3, seed=seed)
        A = generate(spec, FAST)
        inst = TcpInstance(A, rng.uniform(-2.0, 1.0, size=3))
        for sol in solve_enumeration(inst, FAST):
            assert verify_solution(inst, sol.x).ok


@pytest.mark.parametrize("seed", range(10))
def test_strictly_semi_positive_with_nonneg_offset_only_zero(seed):
    rng = np.random.default_rng(700 + seed)
    family = ("diag_dominant", "identity_shift")[seed % 2]
    m = int(rng.integers(2, 5))
    spec = GeneratorSpec(family, m, 3, seed=seed)
    A = generate(spec, FAST)
    inst = TcpInstance(A, rng.uniform(0.0, 2.0, size=3))
    sols = solve_enumeration(inst, FAST)
    assert len(sols) == 1
    np.testing.assert_array_equal(sols[0].x, np.zeros(3))


@pytest.mark.parametrize("seed", range(12))
def test_iterative_agrees_with_enumeration(seed):
    rng = np.random.default_rng(900 + seed)
    family = ("diag_dominant", "identity_shift", "random_symmetric_copositive")[seed % 3]
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 5))
    spec = GeneratorSpec(family, m, n, seed=seed)
    A = generate(spec, FAST)
    inst = TcpInstance(A, rng.uniform(-2.0, 1.0, size=n))
    enum = solve_enumeration(inst, FAST)
    assert enum
    it = solve_iterative(inst, FAST)
    assert any(np.max(np.abs(it.x - s.x)) <= 1e-6 for s in enum)


@pytest.mark.parametrize("seed", range(10))
def test_matrix_enumeration_agrees_with_pivoting_oracle(seed):
    rng = np.random.default_rng(1100 + seed)
    n = int(rng.integers(2, 5))
    spec = GeneratorSpec("matrix_m2", 2, n, seed=seed)
    M = generate(spec, FAST)
    q = rng.uniform(-2.0, 1.0, size=n)
    inst = TcpInstance(M, q)
    z = lemke_lcp(M.data, q)
    assert z is not None
    assert verify_solution(inst, z).ok
    sols = solve_enumeration(inst, FAST)
    assert any(np.max(np.abs(z - s.x)) <= 1e-6 for s in sols)


def test_dimension_cap():
    A = identity_tensor(2, 7)
    inst = TcpInstance(A, -np.ones(7))
    with pytest.raises(ValueError):
        solve_enumeration(inst, FAST)
    sol = solve_iterative(inst, FAST)  # the iterative route has no cap
    np.testing.assert_allclose(sol.x, np.ones(7), atol=1e-8)


def test_unsolvable_instance_warns_then_iterative_raises():
    A = Tensor(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    inst = TcpInstance(A, np.array([-1.0, -1.0]))
    with pytest.warns(UserWarning):
        sols = solve_enumeration(inst, FAST)
    assert sols == []
    with pytest.raises(NonConvergenceError) as err:
        solve_iterative(inst, FAST)
    assert err.value.best_merit > 0


def test_instance_dict_round_trip():
    inst = TcpInstance(identity_tensor(3, 2), np.array([-8.0, 1.0]))
    again = TcpInstance.from_dict(inst.to_dict())
    assert again.A == inst.A
    np.testing.assert_array_equal(again.q, inst.q)


def test_instance_schema_errors():
    from tcpkit import TensorFormatError, tensor_to_dict

    with pytest.raises(TensorFormatError):
        TcpInstance.from_dict({"q": [1.0]})
    with pytest.raises(TensorFormatError):
        TcpInstance.from_dict(
            {"tensor": tensor_to_dict(identity_tensor(2, 2)), "q": [1.0, 2.0, 3.0]}
        )


@pytest.mark.parametrize("q", ["12", "1.5", 1.0, None, {"1": 1.0}, [1.0, True], [1.0, "2"], [1.0, None]])
def test_instance_q_must_be_a_list_of_finite_reals(q):
    from tcpkit import TensorFormatError, tensor_to_dict

    with pytest.raises(TensorFormatError):
        TcpInstance.from_dict({"tensor": tensor_to_dict(identity_tensor(2, 2)), "q": q})


def test_multiple_solutions_sorted_and_distinct():
    # strictly semi-positive with three certified solutions:
    # (1,0), (0,1) and (1/sqrt(3), 1/sqrt(3))
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = 1.0
    data[1, 1, 1] = 1.0
    data[0, 1, 1] = 2.0
    data[1, 0, 0] = 2.0
    inst = TcpInstance(Tensor(data), np.array([-1.0, -1.0]))
    sols = solve_enumeration(inst, FAST)
    assert len(sols) == 3
    expected = [
        [1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)],
        [0.0, 1.0],
        [1.0, 0.0],
    ]
    for sol, want in zip(sols, expected):
        np.testing.assert_allclose(sol.x, want, atol=1e-8)
    norms = [float(np.max(np.abs(s.x))) for s in sols]
    assert norms == sorted(norms)


def test_unsolvable_instance_reports_least_residual_over_all_starts():
    A = Tensor(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    inst = TcpInstance(A, np.array([-1.0, -1.0]))
    with pytest.raises(NonConvergenceError) as err:
        solve_iterative(inst)
    # the heuristic start, zero and six seeded draws
    assert err.value.iterations == 8
    assert 0.0 < err.value.best_merit < np.inf


# Strictly semi-positive instances on which the projected fixed-point solver
# that preceded the semismooth Newton method raised NonConvergenceError.


def _diag_dominant(rng, m, n, margin):
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    cell = tuple([np.arange(n)] * m)
    data[cell] = 0.0
    data[cell] = np.abs(data).reshape(n, -1).sum(axis=1) + margin + rng.uniform(0.0, 1.0, size=n)
    return data


def _nonneg_symmetric(rng, m, n):
    data = rng.uniform(0.0, 1.0, size=(n,) * m)
    perms = list(itertools.permutations(range(m)))
    data = sum(np.transpose(data, p) for p in perms) / len(perms)
    cell = tuple([np.arange(n)] * m)
    data[cell] = data[cell] + 0.5 + rng.uniform(0.0, 1.0, size=n)
    return data


def _hard_instance(family, m, n, s):
    if family == "diag_dominant":
        rng = np.random.default_rng([s, 4, 5, 555])
        A = _diag_dominant(rng, m, n, 0.5)
    else:
        rng = np.random.default_rng([s, m, n, 11])
        A = _nonneg_symmetric(rng, m, n)
    return TcpInstance(Tensor(A), rng.uniform(-2.0, 1.0, size=n))


HARD_DRAWS = [("diag_dominant", 4, 5, 239)] + [
    ("nonneg_symmetric", m, n, s)
    for m, n, seeds in [(3, 5, (3, 46)), (3, 6, (2, 12, 15, 21, 55)), (4, 6, (10, 13, 29, 51, 56))]
    for s in seeds
]


@pytest.mark.parametrize("family,m,n,s", HARD_DRAWS)
def test_iterative_solves_strictly_semi_positive_hard_draws(family, m, n, s):
    inst = _hard_instance(family, m, n, s)
    sol = solve_iterative(inst)
    assert sol.method == "iterative" and verify_solution(inst, sol.x).ok
    assert any(np.max(np.abs(sol.x - e.x)) <= 1e-6 for e in solve_enumeration(inst))


# Positive homogeneity: the solutions for t*q are t^(1/(m-1)) times those for
# q.  The solvers work at unit scale and certify relative to the instance's
# scale, so scaling q by 1e6 or 1e-9 neither loses a solution nor admits a
# spurious one.


def _scale_cases():
    spec = GeneratorSpec("diag_dominant", 3, 3, seed=5)
    # verify_bounds' first instance of this spec
    q = RunConfig(seed=5).substream("diag_dominant", 3, 3, "q", 0).uniform(-2.0, 1.0, size=3)
    A = generate(spec)
    cases = {"diag_dominant_m3n3_s5_q_times_1e6": (A, q, 1e6),
             "diag_dominant_m3n3_s5_q_minus_1e-9_ones": (A, -np.ones(3), 1e-9)}
    # the fixed bases of the benchmark's solve workload
    for m, n, s in [(3, 3, 9), (4, 3, 3)]:
        rng = np.random.default_rng([s, m, n, 99])
        A = Tensor(_diag_dominant(rng, m, n, 0.5))
        q = rng.uniform(-2.0, 1.0, size=n)
        for t in (1e6, 1e-9):
            cases[f"fixed_base_m{m}n{n}_s{s}_q_times_{t:g}"] = (A, q, t)
    return cases


SCALE_CASES = _scale_cases()


@pytest.mark.parametrize("case", sorted(SCALE_CASES))
def test_scaled_offset_solutions_are_scaled_base_solutions(case):
    A, q, t = SCALE_CASES[case]
    c = t ** (1.0 / (A.m - 1))
    base = [s.x for s in solve_enumeration(TcpInstance(A, q))]
    assert base
    inst = TcpInstance(A, t * q)
    assert not verify_solution(inst, np.zeros(A.n)).ok
    sols = solve_enumeration(inst)
    assert len(sols) == len(base)
    for sol, x in zip(sols, base):
        assert sol.residuals.ok and verify_solution(inst, sol.x).ok
        np.testing.assert_allclose(sol.x, c * x, rtol=0, atol=1e-9 * c)
    it = solve_iterative(inst)
    assert verify_solution(inst, it.x).ok
    assert any(np.max(np.abs(it.x - c * x)) <= 1e-6 * c for x in base)


@pytest.mark.parametrize("t", [1e-9, 1e-3, 1e3, 1e6])
def test_certificate_verdict_does_not_depend_on_the_scale(t):
    inst = TcpInstance(identity_tensor(3, 2), np.array([-8.0, 1.0]))
    scaled = TcpInstance(inst.A, t * inst.q)
    for x in ([2.0 * np.sqrt(2.0), 0.0], [2.0 * np.sqrt(2.0) * (1 + 1e-6), 0.0], [1.0, 0.0], [0.0, 0.0]):
        x = np.array(x)
        assert verify_solution(scaled, np.sqrt(t) * x).ok == verify_solution(inst, x).ok


def test_zero_offset_certifies_only_zero():
    inst = TcpInstance(identity_tensor(3, 2), np.zeros(2))
    assert verify_solution(inst, np.zeros(2)).ok
    assert not verify_solution(inst, [1e-12, 0.0]).ok
    np.testing.assert_array_equal(solve_enumeration(inst)[0].x, np.zeros(2))


def _sorted_cell_symmetric(rng, m, n):
    """|uniform(-1, 1)| entries made symmetric by copying each sorted-index
    cell, with the diagonal raised by 0.5."""
    data = np.abs(rng.uniform(-1.0, 1.0, size=(n,) * m))
    for cell in itertools.product(range(n), repeat=m):
        data[cell] = data[tuple(sorted(cell))]
    data[tuple([np.arange(n)] * m)] += 0.5
    return data


def test_polish_retries_without_the_support_rows_that_are_positive():
    # the starts stall at local minima of ||Phi|| whose active pattern
    # {0, 1, 4} has no positive root; at the third one the row w_4 is
    # positive, and dropping component 4 gives the support {0, 1} of a solution
    rng = np.random.default_rng([80, 4, 5, 1, 77])
    inst = TcpInstance(Tensor(_sorted_cell_symmetric(rng, 4, 5)), rng.uniform(-2.0, 1.0, size=5))
    sol = solve_iterative(inst)
    assert verify_solution(inst, sol.x).ok
    assert any(np.max(np.abs(sol.x - e.x)) <= 1e-6 for e in solve_enumeration(inst))

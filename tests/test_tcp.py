"""Complementarity solving: support enumeration, semismooth Newton, certificates."""

import itertools
import warnings

import numpy as np
import pytest

from tcpkit import (
    NonConvergenceError,
    Tensor,
    TcpInstance,
    beta,
    diagonal_tensor,
    identity_tensor,
    solve_enumeration,
    solve_iterative,
    verify_solution,
)
from tcpkit import tcp
from tcpkit.bounds import GeneratorSpec, _draw_tensor, generate
from tcpkit.config import RunConfig
from tcpkit.optimize import newton_lanes
from tcpkit.tensor import contract_m1, principal_subtensor, stacked_subtensors, supports_by_size
from oracles import (
    diag_dominant_data,
    lemke_lcp,
    nonneg_symmetric_data,
    reference_rootless,
    reference_support_roots,
)

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


def test_order_2_singular_support_falls_back_to_least_squares(monkeypatch):
    # support {0, 1} of [[1, 1], [1, 1]] is exactly singular: its root is the
    # least-squares solution, and each singleton has its own root
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a[0].shape) or lstsq(*a, **k))
    inst = TcpInstance(Tensor(np.ones((2, 2))), np.array([-1.0, -1.0]))
    sols = solve_enumeration(inst, FAST)
    assert calls == [(2, 2)]
    assert [s.x.tolist() for s in sols] == [[0.5, 0.4999999999999999], [0.0, 1.0], [1.0, 0.0]]
    assert [s.support for s in sols] == [(0, 1), (1,), (0,)]
    assert all(s.method == "enumeration" and s.residuals.ok for s in sols)


def test_a_certified_dusted_candidate_is_verified_once(monkeypatch):
    # [1, 1e-6] has a dust component; its dusted form [1, 0] solves the instance
    calls = []
    verify = tcp.verify_solution
    monkeypatch.setattr(tcp, "verify_solution", lambda *a, **k: calls.append(a[1]) or verify(*a, **k))
    inst = TcpInstance(Tensor(np.eye(2)), np.array([-1.0, 2.0]))
    assert tcp._certified_point(inst, np.array([1.0, 1e-6])).tolist() == [1.0, 0.0]
    assert len(calls) == 1


def test_a_converged_root_is_kept_by_its_certificate_alone(monkeypatch):
    # converged lanes scaled by 1 + 2e-9 leave a residual norm of about
    # 5.7e-9 on support (0, 1); verify_solution passes, so the root is kept
    lanes = tcp.newton_lanes

    def perturbed(res_fn, jac_fn, Z0):
        Z, ok = lanes(res_fn, jac_fn, Z0)
        return np.where(ok[:, None], Z * (1.0 + 2e-9), Z), ok

    monkeypatch.setattr(tcp, "newton_lanes", perturbed)
    sols = solve_enumeration(TcpInstance(diagonal_tensor([1.0, 1.0], 3), np.array([-1.0, -1.0])), FAST)
    assert [s.support for s in sols] == [(0, 1)]
    np.testing.assert_allclose(sols[0].x, [1.0, 1.0], rtol=0.0, atol=1e-8)


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


def _hard_instance(family, m, n, s):
    if family == "diag_dominant":
        rng = np.random.default_rng([s, 4, 5, 555])
        A = diag_dominant_data(rng, m, n, 0.5)
    else:
        rng = np.random.default_rng([s, m, n, 11])
        A = nonneg_symmetric_data(rng, m, n)
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
        A = Tensor(diag_dominant_data(rng, m, n, 0.5))
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


# ---------------------------------------------------------------------------
# certified exclusion of rootless supports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["identity_shift", "diag_dominant", "random_symmetric_copositive"])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_margin_is_a_lower_bound_on_beta(family, m, n):
    spec = GeneratorSpec(family, m, n, seed=7)
    A = _draw_tensor(spec, RunConfig(seed=7).substream(family, m, n))
    mu = tcp._row_margins(A.data[None])[0]
    assert mu <= beta(A, FAST).value
    if family == "diag_dominant":  # every diagonal entry exceeds its row's absolute sum by 0.5
        assert mu >= 0.5


def _nonpositive_margin_tensor(n=3):
    # negative off-diagonal entries outweigh the diagonal: mu <= 0 on every support
    data = -np.ones((n,) * 3)
    data[tuple([np.arange(n)] * 3)] = 1.0
    return Tensor(data)


def test_nonpositive_row_margin_rules_out_nothing(monkeypatch):
    # mu <= 0 on every support, so every support of size >= 2 runs Newton, q > 0 or not
    n = 3
    A = _nonpositive_margin_tensor(n)
    for group in list(supports_by_size(n))[1:]:
        stacked, S = stacked_subtensors(A, group)
        assert np.all(tcp._row_margins(stacked) <= 0.0)
        rootless, cells, _ = tcp._rootless(stacked, S, np.ones((len(group), len(group[0]))))
        assert not rootless.any() and not cells.any()
    lanes = []
    monkeypatch.setattr(tcp, "newton_lanes",
                        lambda res, jac, Z0: lanes.append(len(Z0)) or newton_lanes(res, jac, Z0))
    solve_enumeration(TcpInstance(A, np.array([0.5, 1.0, 2.0])), FAST)
    assert lanes == [3 * FAST.starts, FAST.starts]


EXCLUSION_DRAWS = [(family, m, n) for family in ("diag_dominant", "nonneg_symmetric")
                   for m in (3, 4) for n in (3, 4, 5)]


def _exclusion_instance(family, m, n, draw=0):
    rng = np.random.default_rng([n, m, 31])
    data = diag_dominant_data(rng, m, n, 0.5) if family == "diag_dominant" else nonneg_symmetric_data(rng, m, n)
    q = np.random.default_rng([n, m, 31, draw]).uniform(-2.0, 1.0, size=n)
    return TcpInstance(Tensor(data), q)


def _ruled_out(monkeypatch, inst):
    """The supports that solve_enumeration rules out before Newton."""
    out = []

    def spy(data, S, Q):
        rootless, cells, proven = rootless_rule(data, S, Q)
        assert np.all(cells <= tcp.EXCLUDE_CELLS)
        out.append(rootless)
        return rootless, cells, proven

    rootless_rule = tcp._rootless
    monkeypatch.setattr(tcp, "_rootless", spy)
    solve_enumeration(inst, FAST)
    monkeypatch.setattr(tcp, "_rootless", rootless_rule)
    groups = [g for g in supports_by_size(inst.A.n) if len(g[0]) >= 2]
    return [J for g, rootless in zip(groups, out) for J, ruled in zip(g, rootless) if ruled]


@pytest.mark.parametrize("family,m,n", EXCLUSION_DRAWS)
def test_ruled_out_supports_have_no_root_that_newton_keeps(monkeypatch, family, m, n):
    ruled_any = False
    for draw in range(3):
        inst = _exclusion_instance(family, m, n, draw)
        ruled = _ruled_out(monkeypatch, inst)
        ruled_any |= bool(ruled)
        unit = TcpInstance(inst.A, inst.q / np.max(np.abs(inst.q)))
        for J in ruled:  # every lane of the support, run through newton_lanes on its own
            assert reference_support_roots(unit, J, FAST) == []
            assert reference_support_roots(unit, J, RunConfig(starts=64, seed=3)) == []
    assert ruled_any


@pytest.mark.parametrize("family,m,n", EXCLUSION_DRAWS[::2])
def test_the_same_supports_are_ruled_out_at_every_scale_of_q(monkeypatch, family, m, n):
    inst = _exclusion_instance(family, m, n)
    ruled = _ruled_out(monkeypatch, inst)
    for t in (1e-9, 3.7, 1e6):
        assert _ruled_out(monkeypatch, TcpInstance(inst.A, t * inst.q)) == ruled


def _planted_groups(m, t):
    """Every support group of size >= 2 of an n = 5 tensor at scale t, as
    ``(group, stacked, S, Q)``, with ``q_J = -A_J y^(m-1)`` planting a root
    y on every support."""
    rng = np.random.default_rng([m, 5])
    A = Tensor(diag_dominant_data(rng, m, 5, 0.5) * t)
    for group in list(supports_by_size(5))[1:]:
        stacked, S = stacked_subtensors(A, group)
        Y = rng.uniform(0.01, 2.0, size=(len(group), len(group[0])))
        Q = -np.stack([contract_m1(principal_subtensor(A, J), y) for J, y in zip(group, Y)])
        yield group, stacked, S, Q


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("t", [1e-150, 1.0, 1e150])
def test_a_support_with_a_root_is_never_ruled_out(m, t):
    for _, stacked, S, Q in _planted_groups(m, t):
        rootless, _, _ = tcp._rootless(stacked, S, Q)
        assert not rootless.any()


# ---------------------------------------------------------------------------
# the near-root exit of the exclusion search
# ---------------------------------------------------------------------------


def _proven_matching_reference(stacked, S, Q):
    """The supports the search proves to hold a root, after checking that it
    rules out exactly the supports the search without the test rules out,
    and never spends more boxes on one."""
    rootless, cells, proven = tcp._rootless(stacked, S, Q)
    ref_rootless, ref_cells = reference_rootless(stacked, Q)
    assert np.array_equal(rootless, ref_rootless)
    assert np.all(cells <= ref_cells)
    assert not np.any(rootless & proven)
    return proven


def _unit_groups(family, m, n, draw):
    """The instance at unit scale and its support groups of size >= 2, as
    ``(group, stacked, S, Q)``, as solve_enumeration passes them."""
    inst = _exclusion_instance(family, m, n, draw)
    unit = TcpInstance(inst.A, inst.q / np.max(np.abs(inst.q)))
    groups = []
    for group in list(supports_by_size(n))[1:]:
        stacked, S = stacked_subtensors(unit.A, group)
        groups.append((group, stacked, S, unit.q[np.array(group)]))
    return unit, groups


@pytest.mark.parametrize("family,m,n", EXCLUSION_DRAWS)
def test_existence_test_keeps_the_rootless_flags_on_the_draws(family, m, n):
    for draw in range(3):
        for _, stacked, S, Q in _unit_groups(family, m, n, draw)[1]:
            _proven_matching_reference(stacked, S, Q)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("t", [1e-150, 1.0, 1e150])
def test_existence_test_keeps_the_flags_with_planted_roots_and_warns_nowhere(m, t):
    proven = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, stacked, S, Q in _planted_groups(m, t):
            proven.extend(_proven_matching_reference(stacked, S, Q))
    # 21 and 19 of 26 supports at m = 3 and 4, at t = 1 and 1e150; all 26 at t = 1e-150
    assert sum(proven) >= 18


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("r", [2, 3])
def test_only_a_start_that_reaches_a_root_leaves_the_search(m, r):
    # a_i y_i^(m-1) + q_i = 0 has the one root y = (-q / a)^(1/(m-1)) in y > 0
    rng = np.random.default_rng([m, r, 17])
    a, root = rng.uniform(0.5, 2.0, r), rng.uniform(0.5, 2.0, r)
    data, S = stacked_subtensors(diagonal_tensor(a, m), [tuple(range(r))])
    Q = -(a * root ** (m - 1))[None]
    tol = tcp.EXCLUDE_TOL * (1.0 + np.abs(Q).max(axis=1))
    widen = 2.0 * tcp._gamma(r ** (m - 1) + m)
    starts = np.vstack([root, np.full(r, np.inf), np.full(r, np.nan)])
    assert tcp._seeded_roots(data, S, Q, tol, widen, np.zeros(3, dtype=int), starts).tolist() == [0]
    # with q_J > 0 every row is at least q_i > tol_J on y >= 0: no start leaves,
    # wherever it starts and wherever its steps go
    spread = rng.uniform(-3.0, 3.0, (400, r)) * 10.0 ** rng.uniform(-6.0, 6.0, (400, 1))
    starts = np.vstack([root, np.zeros(r), spread])
    owner = np.zeros(len(starts), dtype=int)
    assert tcp._seeded_roots(data, S, -Q, tol, widen, owner, starts).size == 0


def test_existence_test_keeps_the_flags_when_no_margin_is_positive():
    A = _nonpositive_margin_tensor()
    for group in list(supports_by_size(A.n))[1:]:
        stacked, S = stacked_subtensors(A, group)
        assert not _proven_matching_reference(stacked, S, -np.ones((len(group), len(group[0])))).any()


@pytest.mark.parametrize("family,m,n", EXCLUSION_DRAWS)
def test_every_proven_support_has_a_root(family, m, n):
    proven_any = False
    for draw in range(3):
        unit, groups = _unit_groups(family, m, n, draw)
        for group, stacked, S, Q in groups:
            _, _, proven = tcp._rootless(stacked, S, Q)
            proven_any |= bool(proven.any())
            for J in itertools.compress(group, proven):
                assert reference_support_roots(unit, J, RunConfig(starts=64, seed=3))
    assert proven_any


def test_a_support_with_a_root_skips_the_search():
    # the m3 n3 scaled base of the benchmark's solve round: at unit scale
    # support (1, 2) holds a root, and the search without the existence test
    # spent 173 boxes over 29 levels on it
    rng = np.random.default_rng([9, 3, 3, 99])
    A = Tensor(diag_dominant_data(rng, 3, 3, 0.5))
    q = rng.uniform(-2.0, 1.0, size=3)
    q = q / np.max(np.abs(q))
    group = list(supports_by_size(3))[1]
    assert group == [(0, 1), (0, 2), (1, 2)]
    stacked, S = stacked_subtensors(A, group)
    rootless, cells, proven = tcp._rootless(stacked, S, q[np.array(group)])
    assert rootless.tolist() == [True, True, False]
    assert proven.tolist() == [False, False, True]
    assert reference_rootless(stacked, q[np.array(group)])[1][2] == 173
    assert cells[2] <= 20

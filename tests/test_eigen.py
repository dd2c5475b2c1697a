"""Eigenpair enumeration: closed forms, matrix oracles, positivity, minima."""

import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tcpkit import (
    EIGEN_KINDS,
    Tensor,
    beta,
    contract_m1,
    delta_h_plus,
    delta_z_plus,
    diagonal_tensor,
    distinct_values,
    h_plus_eigenpairs,
    h_plusplus_eigenpairs,
    identity_tensor,
    pareto_h_eigenvalues,
    pareto_z_eigenvalues,
    principal_subtensor,
    spectrum,
    symmetrize,
    z_plus_eigenpairs,
    z_plusplus_eigenpairs,
)
from tcpkit import eigen
from tcpkit.bounds import GeneratorSpec, generate, min_pareto_h, min_pareto_z
from tcpkit.config import POSITIVITY_FLOOR, RESIDUAL_TOL, RunConfig
from oracles import highs_max_min_component, pareto_matrix_oracle

FAST = RunConfig(starts=12)


def strictly_positive_sample(seed, m=None, n=None):
    """Positive entries plus dominant diagonal: strictly semi-positive."""
    rng = np.random.default_rng(seed)
    m = m or int(rng.integers(2, 5))
    n = n or int(rng.integers(2, 4))
    data = rng.uniform(0.0, 1.0, size=(n,) * m)
    idx = np.arange(n)
    data[tuple([idx] * m)] += rng.uniform(0.5, 1.5, size=n)
    return Tensor(data)


# --- closed forms -------------------------------------------------------------


def test_identity_orthant_eigenvalue_is_one():
    recs = h_plus_eigenpairs(identity_tensor(3, 2), FAST)
    assert distinct_values(recs) == pytest.approx([1.0], abs=1e-8)
    supports = {r.support for r in recs}
    assert (0,) in supports and (1,) in supports and (0, 1) in supports
    # the coordinate vectors and the all-ones direction are all eigenvectors
    assert any(np.allclose(r.vector, [1.0, 1.0], atol=1e-8) for r in recs)


def test_diagonal_matrix_spectrum():
    recs = h_plus_eigenpairs(diagonal_tensor([2.0, 5.0], 2), FAST)
    assert distinct_values(recs) == pytest.approx([2.0, 5.0])
    by_value = {round(r.value): r for r in recs}
    np.testing.assert_allclose(by_value[2].vector, [1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(by_value[5].vector, [0.0, 1.0], atol=1e-9)


def test_diagonal_tensor_higher_order_spectrum():
    d = [1.5, 2.5, 4.0]
    recs = h_plus_eigenpairs(diagonal_tensor(d, 4), FAST)
    assert distinct_values(recs) == pytest.approx(sorted(d), abs=1e-8)
    for rec in recs:
        assert len(rec.support) == 1


def test_identity_z_family():
    recs = z_plus_eigenpairs(identity_tensor(4, 2), FAST)
    assert distinct_values(recs) == pytest.approx([0.5, 1.0], abs=1e-8)
    pair = [r for r in recs if r.support == (0, 1)]
    assert len(pair) == 1
    np.testing.assert_allclose(pair[0].vector, [1 / np.sqrt(2)] * 2, atol=1e-8)


def test_matrix_z_matches_symmetric_eigensolver():
    rng = np.random.default_rng(8)
    M = rng.uniform(-1.0, 1.0, size=(3, 3))
    M = Tensor((M + M.T) / 2)
    recs = z_plus_eigenpairs(M, FAST)
    # oracle: per principal submatrix, eigenpairs with a nonnegative eigenvector
    want = set()
    for size in range(1, 4):
        for J in itertools.combinations(range(3), size):
            sub = M.data[np.ix_(J, J)]
            vals, vecs = np.linalg.eigh(sub)
            for k in range(size):
                v = vecs[:, k] * np.sign(vecs[np.argmax(np.abs(vecs[:, k])), k])
                if np.min(v) <= 1e-9:
                    continue
                x = np.zeros(3)
                x[list(J)] = v
                off = [i for i in range(3) if i not in J]
                if off and np.max(np.abs((M.data @ x)[off] - vals[k] * x[off])) > 1e-9:
                    continue
                want.add(round(vals[k], 8))
    got = {round(v, 8) for v in distinct_values(recs)}
    assert got == want


def test_pareto_identity_single_value():
    recs = pareto_h_eigenvalues(identity_tensor(3, 2), FAST)
    assert distinct_values(recs) == pytest.approx([1.0], abs=1e-8)


def test_pareto_diagonal_matrix():
    recs = pareto_h_eigenvalues(diagonal_tensor([1.0, 2.0], 2), FAST)
    assert distinct_values(recs) == pytest.approx([1.0, 2.0])
    assert all(len(r.support) == 1 for r in recs)


@pytest.mark.parametrize("n", [2, 3])
def test_pareto_z_identity_family(n):
    recs = pareto_z_eigenvalues(identity_tensor(4, n), FAST)
    want = sorted(r ** (-1.0) for r in range(1, n + 1))
    assert distinct_values(recs) == pytest.approx(want, abs=1e-8)


def test_pareto_z_identity_matrix_case():
    recs = pareto_z_eigenvalues(identity_tensor(2, 3), FAST)
    assert distinct_values(recs) == pytest.approx([1.0], abs=1e-10)


def test_pareto_z_refuses_odd_order():
    with pytest.raises(ValueError):
        pareto_z_eigenvalues(identity_tensor(3, 2), FAST)
    with pytest.raises(ValueError):
        delta_z_plus(identity_tensor(3, 2), FAST)


@pytest.mark.parametrize("seed", range(5))
def test_matrix_pareto_matches_eigendecomposition_oracle(seed):
    rng = np.random.default_rng(40 + seed)
    M = Tensor(rng.uniform(-1.0, 1.0, size=(3, 3)))
    got = distinct_values(pareto_h_eigenvalues(M, FAST))
    want = pareto_matrix_oracle(M.data)
    assert got == pytest.approx(want, abs=1e-7)


# --- record certificates --------------------------------------------------------


def test_records_satisfy_their_own_invariants():
    A = strictly_positive_sample(3, m=3, n=3)
    for rec in h_plus_eigenpairs(A, FAST):
        x = rec.vector
        assert np.min(x) >= 0
        assert np.max(np.abs(x)) == pytest.approx(1.0, abs=1e-12)
        from tcpkit import contract_m1

        resid = np.max(np.abs(contract_m1(A, x) - rec.value * x ** (A.m - 1)))
        assert resid <= 1e-8
    for rec in z_plus_eigenpairs(A, FAST):
        x = rec.vector
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
        from tcpkit import contract_m1

        resid = np.max(np.abs(contract_m1(A, x) - rec.value * x))
        assert resid <= 1e-8


def test_pareto_records_satisfy_inequality_and_value_equation():
    A = symmetrize(strictly_positive_sample(11, m=4, n=3))
    from tcpkit import contract_m1

    for rec in pareto_h_eigenvalues(A, FAST):
        x = rec.vector
        rows = contract_m1(A, x)
        assert np.min(rows - rec.value * x ** (A.m - 1)) >= -1e-8
        assert abs(float(x @ rows) - rec.value * float(np.sum(x**A.m))) <= 1e-8
    for rec in pareto_z_eigenvalues(A, FAST):
        x = rec.vector
        rows = contract_m1(A, x)
        assert np.min(rows - rec.value * x) >= -1e-8
        assert abs(float(x @ rows) - rec.value) <= 1e-8


def test_interior_variants_are_full_support():
    A = identity_tensor(3, 2)
    for rec in h_plusplus_eigenpairs(A, FAST):
        assert rec.support == (0, 1)
        assert np.min(rec.vector) > 0
    for rec in z_plusplus_eigenpairs(identity_tensor(4, 2), FAST):
        assert rec.support == (0, 1)
        assert np.min(rec.vector) > 0


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_plusplus_is_the_full_support_part_of_plus(m, n):
    A = strictly_positive_sample(60 + n, m=m, n=n)
    full = tuple(range(n))
    for plus, plusplus, kind in (
        (h_plus_eigenpairs, h_plusplus_eigenpairs, "h_plusplus"),
        (z_plus_eigenpairs, z_plusplus_eigenpairs, "z_plusplus"),
    ):
        want = [
            replace(r, kind=kind) for r in plus(A, FAST)
            if r.support == full and np.min(r.vector) > POSITIVITY_FLOOR
        ]
        got = plusplus(A, FAST)
        assert got
        assert [r.to_jsonable() for r in got] == [r.to_jsonable() for r in want]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_delta_records_are_zero_extended_records_of_their_own_kind(m):
    A = strictly_positive_sample(70 + m, m=m, n=3)
    systems = [(delta_h_plus, "delta_h_plus", "H")]
    if m % 2 == 0:
        systems.append((delta_z_plus, "delta_z_plus", "Z"))
    for fn, kind, system in systems:
        res = fn(A, FAST)
        assert res.value == min(r.value for r in res.records)
        assert {r.support for r in res.records} >= {(j,) for j in range(A.n)}
        for rec in res.records:
            J, x = list(rec.support), rec.vector
            assert rec.kind == kind and x.shape == (A.n,)
            assert rec.residual <= RESIDUAL_TOL
            assert np.all(np.delete(x, J) == 0.0) and np.all(x[J] > 0.0)
            rhs = x ** (m - 1) if system == "H" else x
            gap = contract_m1(A, x) - rec.value * rhs
            assert np.max(np.abs(gap[J])) <= RESIDUAL_TOL


# --- positivity for strictly semi-positive tensors -------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_orthant_eigenvalues_positive_for_strict_tensors(seed):
    A = strictly_positive_sample(seed)
    for rec in h_plus_eigenpairs(A, FAST):
        assert rec.value > 1e-10
    for rec in z_plus_eigenpairs(A, FAST):
        assert rec.value > 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_subtensor_eigenvalues_positive_for_strict_tensors(seed):
    A = strictly_positive_sample(100 + seed, n=3)
    for size in range(1, A.n + 1):
        for J in itertools.combinations(range(A.n), size):
            sub = principal_subtensor(A, J)
            for rec in h_plus_eigenpairs(sub, FAST):
                assert rec.value > 1e-10
            for rec in z_plus_eigenpairs(sub, FAST):
                assert rec.value > 1e-10


def test_semi_positive_tensors_have_nonnegative_eigenvalues():
    rng = np.random.default_rng(55)
    for _ in range(4):
        data = rng.uniform(0.0, 1.0, size=(3, 3, 3))
        idx = np.arange(3)
        data[tuple([idx] * 3)] = 0.0  # zero diagonal still semi-positive
        A = Tensor(data)
        for rec in h_plus_eigenpairs(A, FAST):
            assert rec.value >= -1e-8
        for rec in z_plus_eigenpairs(A, FAST):
            assert rec.value >= -1e-8


# --- minima over principal sub-tensors --------------------------------------------


def test_delta_identity():
    assert delta_h_plus(identity_tensor(3, 2), FAST).value == pytest.approx(1.0, abs=1e-8)
    assert delta_z_plus(identity_tensor(4, 2), FAST).value == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("m", [2, 4])
def test_delta_diagonal(m):
    res = delta_h_plus(diagonal_tensor([2.0, 5.0], m), FAST)
    assert res.value == pytest.approx(2.0, abs=1e-8)
    assert res.heuristic == (m != 2)


@pytest.mark.parametrize("seed", range(4))
def test_delta_at_most_min_diagonal(seed):
    A = strictly_positive_sample(200 + seed)
    res = delta_h_plus(A, FAST)
    assert res.value <= float(A.diagonal().min()) + 1e-8
    if A.m % 2 == 0:
        res_z = delta_z_plus(A, FAST)
        assert res_z.value <= float(A.diagonal().min()) + 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_margin_bounded_by_delta(seed):
    A = strictly_positive_sample(300 + seed)
    margin = beta(A).value
    assert margin <= delta_h_plus(A, FAST).value + 1e-6
    if A.m % 2 == 0:
        assert margin <= A.n ** ((A.m - 2) / 2.0) * delta_z_plus(A, FAST).value + 1e-6


def test_spectrum_summary_fields():
    I42 = identity_tensor(4, 2)
    s = spectrum(I42, "pareto_z", FAST)
    assert s.mu_min_pareto_z == pytest.approx(0.5, abs=1e-8)
    assert s.completeness == "heuristic"
    s = spectrum(I42, "delta_z_plus", FAST)
    assert s.delta_z_plus == pytest.approx(0.5, abs=1e-8)
    assert s.records
    s = spectrum(diagonal_tensor([2.0, 5.0], 2), "h_plus", FAST)
    assert s.completeness == "closed_form"
    with pytest.raises(ValueError):
        spectrum(I42, "nope", FAST)


KIND_FUNCTIONS = {
    "h_plus": h_plus_eigenpairs,
    "h_plusplus": h_plusplus_eigenpairs,
    "z_plus": z_plus_eigenpairs,
    "z_plusplus": z_plusplus_eigenpairs,
    "pareto_h": pareto_h_eigenvalues,
    "pareto_z": pareto_z_eigenvalues,
    "delta_h_plus": lambda A, cfg: delta_h_plus(A, cfg).records,
    "delta_z_plus": lambda A, cfg: delta_z_plus(A, cfg).records,
}
MINIMUM_FIELDS = {
    "pareto_h": "lambda_min_pareto_h",
    "pareto_z": "mu_min_pareto_z",
    "delta_h_plus": "delta_h_plus",
    "delta_z_plus": "delta_z_plus",
}


@pytest.mark.parametrize("kind", EIGEN_KINDS)
def test_spectrum_gives_its_kinds_records_and_only_its_minimum(kind):
    assert set(EIGEN_KINDS) == set(KIND_FUNCTIONS)
    A = strictly_positive_sample(41, m=4, n=3)
    summary = spectrum(A, kind, FAST)
    want = KIND_FUNCTIONS[kind](A, FAST)
    assert [r.to_jsonable() for r in summary.records] == [r.to_jsonable() for r in want]
    assert want
    for name in set(MINIMUM_FIELDS.values()):
        got = getattr(summary, name)
        if name == MINIMUM_FIELDS.get(kind):
            assert got == min(r.value for r in want)
        else:
            assert got is None


@pytest.mark.parametrize(
    "A, heuristic",
    [
        (diagonal_tensor([2.0, 5.0], 2), False),
        (diagonal_tensor([3.0], 3), False),
        (diagonal_tensor([2.0, 5.0], 3), True),
    ],
    ids=["m2", "n1", "m3"],
)
def test_delta_heuristic_agrees_with_completeness(A, heuristic):
    res = delta_h_plus(A, FAST)
    assert res.heuristic == heuristic
    completeness = spectrum(A, "delta_h_plus", FAST).completeness
    assert completeness == ("heuristic" if heuristic else "closed_form")


def test_enumeration_is_deterministic():
    A = strictly_positive_sample(77, m=3, n=3)
    r1 = h_plus_eigenpairs(A, FAST)
    r2 = h_plus_eigenpairs(A, FAST)
    assert [(a.value, tuple(a.vector)) for a in r1] == [(b.value, tuple(b.vector)) for b in r2]


@pytest.mark.parametrize("kind", ["h_plus", "pareto_h", "delta_h_plus"])
def test_enumeration_is_positively_homogeneous(kind):
    # the work runs at an exact power-of-two scale, so A -> 2^k A scales every
    # value and residual by 2^k bit for bit and leaves every vector unchanged
    A = generate(GeneratorSpec("identity_shift", 3, 4, seed=1))
    base = spectrum(A, kind).records
    assert base
    for k in (-30, -20, -10, 24, 1000):
        recs = spectrum(A.scale(2.0**k), kind).records
        scaled = [(r.value * 2.0**k, r.residual * 2.0**k) for r in base]
        assert [(r.value, r.residual) for r in recs] == scaled
        for r, r0 in zip(recs, base):
            np.testing.assert_array_equal(r.vector, r0.vector)
    assert len(spectrum(A.scale(0.3), kind).records) == len(base)


# --- the strictly positive vector of a matrix eigenspace -----------------------


def one_column_bases():
    """Unit columns as the SVD gives them: either overall sign, mixed signs,
    exact zeros and tiny components on both sides of the positive cut."""
    rng = np.random.default_rng(2015)
    columns = []
    for i in range(2400):
        shape = i % 4
        b = rng.uniform(0.01, 1.0, size=int(rng.integers(1 if shape == 0 else 2, 9)))
        if shape == 1:
            b[rng.integers(b.size)] = 10.0 ** rng.uniform(-11.0, -2.0)
        elif shape == 2:
            b[rng.integers(b.size)] *= -1.0
        elif shape == 3:
            b[rng.integers(b.size)] = 0.0
        b = b * rng.choice([-1.0, 1.0]) / np.linalg.norm(b)
        columns.append(b[:, None])
    return columns


def test_one_column_rule_is_the_closed_form_bit_for_bit():
    # at k = 1 the vertex system is the 1x1 equation sum(b) c = 1, whose
    # solution is c = 1 / sum(b): the rule keeps b * c iff its smallest
    # component passes the cut, with no linear solve
    verdicts = []
    for basis in one_column_bases():
        b = basis[:, 0]
        c = np.linalg.solve(basis.sum(axis=0)[None, :], [1.0])[0]
        assert c == 1.0 / b.sum()
        y = b * c
        got = eigen._positive_eigvec(basis)
        if np.min(y) > POSITIVITY_FLOOR:
            np.testing.assert_array_equal(got, y / np.linalg.norm(y))
        else:
            assert got is None
        verdicts.append(got is not None)
    assert 0 < sum(verdicts) < len(verdicts)


def multi_column_bases(count):
    """Orthonormal bases of 2 to 8 rows and at least 2 columns; every other
    one has a positive vector built into its span."""
    rng = np.random.default_rng(2016)
    bases = []
    for i in range(count):
        r = int(rng.integers(2, 9))
        M = rng.standard_normal((r, int(rng.integers(2, r + 1))))
        if i % 2:
            M[:, 0] = rng.uniform(0.05, 1.0, size=r)
        bases.append(np.linalg.qr(M)[0])
    return bases


def test_multi_column_rule_matches_the_highs_lp():
    # the k-row vertices reach the LP optimum: the same verdict at the same
    # cut, and the same largest smallest component to 1e-12 relative
    verdicts = []
    for basis in multi_column_bases(1000):
        t = highs_max_min_component(basis)
        got = eigen._positive_eigvec(basis)
        assert (got is not None) == (t is not None and t > POSITIVITY_FLOOR)
        if got is not None:
            assert np.min(got) / np.sum(got) == pytest.approx(t, rel=1e-12, abs=0.0)
        verdicts.append(got is not None)
    assert 100 < sum(verdicts) < 900


def test_positive_cut_accepts_the_old_lp_band_and_rejects_below_it():
    # b / sum(b) with a smallest component of about 5e-10 or 1e-6 was left to
    # the LP, whose feasibility tolerance rejected it; the cut is 1e-10
    for tail, accepted in [(4.95464632e-10, True), (1e-6, True), (1e-10, False), (5e-11, False)]:
        b = np.array([1.0, tail])
        assert (eigen._positive_eigvec((b / np.linalg.norm(b))[:, None]) is not None) == accepted


def test_enumeration_scale_stays_finite_near_the_float_limit():
    # max|A| = 1.5e308 rounds to 2^1024 in log2, a scale that is itself no float
    summary = spectrum(diagonal_tensor([1.5e308, 1.0], 2), "h_plus")
    assert sorted(r.value for r in summary.records) == [1.0, 1.5e308]


@pytest.mark.parametrize("v", [1e-310, 1e-320, 5e-324])
def test_enumeration_at_a_subnormal_scale_keeps_the_diagonal(v):
    # 1 / 2^round(log2 v) overflows, so the scale is applied to the exponents
    for kind in ("h_plus", "pareto_h", "delta_h_plus"):
        summary = spectrum(diagonal_tensor([v, 2 * v], 3), kind)
        assert sorted(r.value for r in summary.records) == [v, 2 * v]


def test_one_column_with_zero_sum_gives_no_point():
    assert eigen._positive_eigvec(np.array([[1.0], [-1.0]]) / np.sqrt(2.0)) is None


def test_a_converged_eigenpair_is_kept_by_verify_alone(monkeypatch):
    # lam + 5e-9 leaves a Newton residual of about 3.5e-9 on support (0, 1),
    # within RESIDUAL_TOL, so _verify keeps the pair
    lanes = eigen.newton_lanes

    def perturbed(res_fn, jac_fn, Z0):
        Z, ok = lanes(res_fn, jac_fn, Z0)
        Z[:, -1] += 5e-9
        return Z, ok

    monkeypatch.setattr(eigen, "newton_lanes", perturbed)
    recs = [r for r in h_plus_eigenpairs(identity_tensor(3, 2), FAST) if r.support == (0, 1)]
    assert recs and all(r.residual <= RESIDUAL_TOL and r.value == pytest.approx(1.0) for r in recs)


def test_repeated_eigenvalue_takes_the_vertex_rule(monkeypatch):
    widths = []
    rule = eigen._positive_eigvec
    monkeypatch.setattr(eigen, "_positive_eigvec", lambda basis: widths.append(basis.shape[1]) or rule(basis))
    recs = h_plus_eigenpairs(identity_tensor(2, 3), FAST)
    assert sorted(r.support for r in recs) == sorted(
        J for k in (1, 2, 3) for J in itertools.combinations(range(3), k)
    )
    assert all(r.value == pytest.approx(1.0) for r in recs)
    full = next(r for r in recs if r.support == (0, 1, 2))
    np.testing.assert_allclose(full.vector, np.ones(3), rtol=0.0, atol=1e-15)
    assert widths and all(k >= 2 for k in widths)


def test_order_2_bounds_run_without_scipy():
    # a fresh interpreter in which any scipy import fails: every order-2 eigen
    # kind, repeated eigenvalues included, and the symmetric order-2
    # sandwiches (which divide by least Pareto values) run on numpy alone
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import numpy as np",
        "from tcpkit import EIGEN_KINDS, GeneratorSpec, Tensor, eigen, spectrum, verify_bounds",
        "widths = []",
        "rule = eigen._positive_eigvec",
        "eigen._positive_eigvec = lambda basis: widths.append(basis.shape[1]) or rule(basis)",
        "for A in (Tensor(np.eye(3)), Tensor(np.diag([1.0, 1.0, 2.0]))):",
        "    for kind in EIGEN_KINDS:",
        "        spectrum(A, kind)",
        "assert abs(spectrum(Tensor(np.eye(3)), 'pareto_h').lambda_min_pareto_h - 1.0) < 1e-15",
        "for spec in (GeneratorSpec('matrix_m2', 2, 4, seed=3, parameters={'symmetric': True}),",
        "             GeneratorSpec('random_symmetric_copositive', 2, 4, seed=3)):",
        "    assert verify_bounds(spec, 3)",
        "print(len(EIGEN_KINDS), min(widths), max(widths))",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["8", "1", "3"]


def order_2_symmetric_draws():
    """Symmetric ``matrix_m2`` and ``random_symmetric_copositive`` draws at
    order 2, n 2-4, seeds 0-4: 30 matrices."""
    return [
        generate(GeneratorSpec(family, 2, n, seed=seed, parameters=parameters))
        for family, parameters in (("matrix_m2", {"symmetric": True}), ("random_symmetric_copositive", {}))
        for n in (2, 3, 4)
        for seed in range(5)
    ]


def test_order_2_least_pareto_h_and_z_values_are_one_eigenvalue():
    # for a symmetric matrix both least Pareto values are the least eigenvalue
    # of some principal submatrix, found by one eigendecomposition
    draws = order_2_symmetric_draws()
    assert len(draws) == 30
    for A in draws:
        assert min_pareto_h(A) == min_pareto_z(A)


def test_order_2_pareto_runs_no_sphere_search_and_no_newton(monkeypatch):
    draws = order_2_symmetric_draws()

    def refuse(*args, **kwargs):
        raise AssertionError("order 2 takes the eigendecomposition alone")

    monkeypatch.setattr(eigen, "minimize_nonneg_sphere", refuse)
    monkeypatch.setattr(eigen, "newton_lanes", refuse)
    for A in draws:
        assert pareto_h_eigenvalues(A) and pareto_z_eigenvalues(A)

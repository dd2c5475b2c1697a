"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines as they complete.  Criteria with runtime budgets assert the
measured wall time.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tcpkit import (
    OP_ROOT,
    OP_SCALED,
    GeneratorSpec,
    Tensor,
    TcpInstance,
    beta,
    classify,
    delta_h_plus,
    delta_z_plus,
    diagonal_tensor,
    distinct_values,
    estimate_norm,
    evaluate_instance,
    generate,
    h_plus_eigenpairs,
    identity_tensor,
    norm_bound,
    pareto_h_eigenvalues,
    pareto_z_eigenvalues,
    principal_subtensor,
    solve_enumeration,
    solve_iterative,
    verify_bounds,
    verify_solution,
    z_plus_eigenpairs,
)
from tcpkit.config import DEFAULT_CONFIG as CFG
from oracles import classify_grid_oracle, draw_decisive_tensor


@contextmanager
def criterion(num: int, name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"[criterion {num}] {name}: PASS ({time.monotonic() - start:.1f}s)")


def strict_corpus(ms=(2, 3, 4), ns=(2, 3), families=("identity_shift", "diag_dominant", "random_symmetric_copositive")):
    """One gated strictly semi-positive tensor per (family, m, n)."""
    out = []
    for family in families:
        for m in ms:
            for n in ns:
                if family == "matrix_m2" and m != 2:
                    continue
                out.append(generate(GeneratorSpec(family, m, n, seed=m * 10 + n)))
    return out


def semi_positive_corpus(count=50, seed=123):
    """Semi-positive mix: nonnegative tensors (zero diagonal allowed) and
    strictly semi-positive generator outputs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        if kind == 0:
            data = rng.uniform(0.0, 1.0, size=(n,) * m)
            idx = np.arange(n)
            data[tuple([idx] * m)] = 0.0
            out.append(Tensor(data))
        elif kind == 1:
            out.append(generate(GeneratorSpec("diag_dominant", m, n, seed=1000 + len(out))))
        else:
            out.append(generate(GeneratorSpec("random_symmetric_copositive", m, n, seed=2000 + len(out))))
    return out


def test_criterion_1_margin_closed_forms():
    with criterion(1, "activity-margin closed forms under 10s"):
        start = time.monotonic()
        for m in (2, 3, 4):
            for n in (2, 3, 4):
                assert beta(identity_tensor(m, n)).value == pytest.approx(1.0, abs=1e-6)
        rng = np.random.default_rng(7)
        for k in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            d = rng.uniform(0.1, 5.0, size=n)
            assert beta(diagonal_tensor(d, m)).value == pytest.approx(float(d.min()), abs=1e-6)
        assert time.monotonic() - start < 10.0


def test_criterion_2_classification_equivalence():
    with criterion(2, "classification matches the definition grid oracle on 50 tensors"):
        rng = np.random.default_rng(20260809)
        for _ in range(50):
            data = draw_decisive_tensor(rng, m_choices=(2, 3), n_choices=(2, 3))
            assert classify(Tensor(data)).verdict == classify_grid_oracle(data, points=41)


def test_criterion_3_margin_monotonicity_suite():
    with criterion(3, "margin monotonicity and boundedness on 50 semi-positive tensors"):
        rng = np.random.default_rng(31)
        for A in semi_positive_corpus(count=50):
            val = beta(A).value
            d = rng.uniform(0.0, 2.0, size=A.n)
            assert val <= beta(A.add(diagonal_tensor(d, A.m))).value + 1e-8
            for size in range(1, A.n + 1):
                for J in itertools.combinations(range(A.n), size):
                    assert val <= beta(principal_subtensor(A, J)).value + 1e-8
            assert val <= A.n ** ((A.m - 2) / 2.0) * norm_bound(A, OP_SCALED, math.inf) + 1e-8
            if A.m % 2 == 0:
                assert val <= norm_bound(A, OP_ROOT, math.inf) ** (A.m - 1) + 1e-8
            assert val <= float(A.diagonal().min()) + 1e-8


def test_criterion_4_eigen_closed_forms():
    with criterion(4, "eigen closed forms and the min-diagonal bound"):
        for m, n in [(2, 2), (3, 2), (4, 3)]:
            recs = pareto_h_eigenvalues(identity_tensor(m, n))
            assert distinct_values(recs) == pytest.approx([1.0], abs=1e-8)
        for n in (2, 3):
            recs = pareto_z_eigenvalues(identity_tensor(4, n))
            want = sorted(float(r) ** ((2 - 4) / 2.0) for r in range(1, n + 1))
            assert distinct_values(recs) == pytest.approx(want, abs=1e-8)
        for m in (2, 4):
            assert delta_h_plus(diagonal_tensor([2.0, 5.0], m)).value == pytest.approx(2.0, abs=1e-8)
        for A in strict_corpus(ns=(2, 3)):
            assert delta_h_plus(A).value <= float(A.diagonal().min()) + 1e-8
            if A.m % 2 == 0:
                assert delta_z_plus(A).value <= float(A.diagonal().min()) + 1e-8


def test_criterion_5_subtensor_eigenvalue_positivity():
    with criterion(5, "orthant eigenvalues of every principal sub-tensor positive"):
        for A in strict_corpus(ns=(2, 3)):
            for size in range(1, A.n + 1):
                for J in itertools.combinations(range(A.n), size):
                    sub = principal_subtensor(A, J)
                    for rec in h_plus_eigenpairs(sub):
                        assert rec.value > 1e-10
                    for rec in z_plus_eigenpairs(sub):
                        assert rec.value > 1e-10


def test_criterion_6_tcp_correctness():
    with criterion(6, "solution certificates, zero-solution law, solver agreement"):
        rng = np.random.default_rng(61)
        families = ("diag_dominant", "identity_shift", "random_symmetric_copositive")
        # nonnegative offsets admit only the zero solution
        for k in range(50):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            A = generate(GeneratorSpec(families[k % 3], m, n, seed=3000 + k))
            inst = TcpInstance(A, rng.uniform(0.0, 2.0, size=n))
            sols = solve_enumeration(inst)
            assert len(sols) == 1
            np.testing.assert_array_equal(sols[0].x, np.zeros(n))
        # the two solvers agree and every solution re-certifies
        for k in range(100):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            A = generate(GeneratorSpec(families[k % 3], m, n, seed=4000 + k))
            inst = TcpInstance(A, rng.uniform(-2.0, 1.0, size=n))
            enum = solve_enumeration(inst)
            assert enum
            for sol in enum:
                assert verify_solution(inst, sol.x, tol=1e-8).ok
            it = solve_iterative(inst)
            assert verify_solution(inst, it.x, tol=1e-8).ok
            assert any(np.max(np.abs(it.x - s.x)) <= 1e-6 for s in enum)


def test_criterion_7_bound_sandwich_200_instances():
    with criterion(7, "zero sandwich violations over 200 instances under 5 min"):
        start = time.monotonic()
        combos = []
        for family in ("identity_shift", "diag_dominant", "random_symmetric_copositive"):
            for m in (2, 3, 4):
                for n in (2, 3, 4):
                    combos.append(GeneratorSpec(family, m, n, seed=70))
        for n in (2, 3, 4):
            combos.append(GeneratorSpec("matrix_m2", 2, n, seed=70))
            combos.append(GeneratorSpec("matrix_m2", 2, n, seed=71, parameters={"symmetric": True}))
        per = -(-200 // len(combos))  # ceil: at least 200 total
        total = 0
        for spec in combos:
            reports = verify_bounds(spec, per, CFG, estimate_budget=None)
            assert all(r.passed for r in reports)
            total += per
        assert total >= 200
        # identity instances meet the infinity-norm upper bound with equality
        rng = np.random.default_rng(72)
        for m in (2, 3, 4):
            for n in (2, 3):
                A = identity_tensor(m, n)
                inst = TcpInstance(A, -rng.uniform(0.2, 2.0, size=n))
                sols = solve_enumeration(inst)
                (report,) = evaluate_instance(
                    inst, sols, 1.0, None, None, f"ident-{m}-{n}", CFG, None
                )
                entry = next(e for e in report.entries if e.entry_id == "inf_general")
                assert entry.achieved == pytest.approx(entry.upper, abs=1e-6)
                assert report.passed
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"ran {elapsed:.0f}s, budget is 300s"


def test_criterion_8_norm_estimates_respect_bounds():
    with criterion(8, "empirical norms below closed-form bounds; identity norms are 1"):
        for m, n in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
            I = identity_tensor(m, n)
            for op in (OP_SCALED,) + ((OP_ROOT,) if m % 2 == 0 else ()):
                rep = estimate_norm(I, op, math.inf, budget=8)
                assert rep.empirical_norm == pytest.approx(1.0, abs=1e-6)
        for A in strict_corpus(ns=(2, 3)):
            ops = (OP_SCALED,) + ((OP_ROOT,) if A.m % 2 == 0 else ())
            for op in ops:
                for p in (1.0, 2.0, math.inf):
                    rep = estimate_norm(A, op, p, budget=16)
                    assert rep.empirical_norm <= rep.closed_form_bound + 1e-8


def test_criterion_9_seeded_runs_byte_identical():
    with criterion(9, "repeated seeded verify-bounds runs byte-identical"):
        argv = [
            sys.executable, "-m", "tcpkit.cli", "verify-bounds",
            "--family", "random_symmetric_copositive", "--m", "3", "--n", "2",
            "--count", "5", "--seed", "99",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty JSON
        json.loads(first.stdout)


def test_criterion_10_eigenvalue_upper_bounds_on_beta():
    # For an H+ (Pareto H) eigenpair with ||x||_inf = 1, x_i (A x^(m-1))_i is
    # lambda x_i^m <= lambda on the support and 0 off it, so beta <= lambda.
    # A Z+ eigenvector has ||x||_2 = 1, so ||x||_inf >= n^(-1/2) and scaling it
    # to ||x||_inf = 1 gives beta <= n^((m-2)/2) mu.
    with criterion(10, "beta below delta_H+, n^((m-2)/2) delta_Z+ and the least Pareto H-value"):
        for A in strict_corpus():
            value = beta(A).value
            assert value <= delta_h_plus(A).value + 1e-8
            if A.m % 2 == 0:
                assert value <= A.n ** ((A.m - 2) / 2.0) * delta_z_plus(A).value + 1e-8
            assert value <= min(rec.value for rec in pareto_h_eigenvalues(A)) + 1e-8

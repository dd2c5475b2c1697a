"""Tests of the benchmark's checker and tracer (not collected by the package's suite).

    python3 -m pytest perfbench/test_checker.py -q
"""

import itertools
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import checker  # noqa: E402


def identity(m: int, n: int) -> np.ndarray:
    A = np.zeros((n,) * m)
    idx = np.arange(n)
    A[tuple([idx] * m)] = 1.0
    return A


def test_contract_matches_explicit_sum():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3, 3, 3))
    x = rng.standard_normal(3)
    expected = [
        sum(A[i, j, k, l] * x[j] * x[k] * x[l] for j, k, l in itertools.product(range(3), repeat=3))
        for i in range(3)
    ]
    assert np.allclose(checker.contract(A, x), expected)
    assert np.allclose(checker.contract(A, np.vstack([x, 2 * x]))[1], 8 * np.array(expected))


def test_certificate_accepts_exact_and_rejects_perturbed_solution():
    A = identity(3, 3)
    q = np.array([-4.0, -1.0, 2.0])
    x = np.array([2.0, 1.0, 0.0])  # x_i^2 = -q_i on the support, w_3 = 2
    assert checker.certify(A, q, x) is None
    assert checker.certify(A, q, x + np.array([1e-3, 0.0, 0.0])) is not None
    assert checker.certify(A, q, np.array([2.0, 1.0, 1e-3])) is not None  # x_3 w_3 > 0
    assert checker.certify(A, q, np.array([2.0, -1.0, 0.0])) is not None


def test_certificate_rejects_zero_for_tiny_negative_offset():
    A = identity(3, 4)
    q = -1e-9 * np.ones(4)
    assert checker.certify(A, q, np.zeros(4)) is not None
    assert checker.certify(A, q, np.sqrt(1e-9) * np.ones(4)) is None


def test_lemke_matches_brute_force_support_search():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = 5
        M = rng.uniform(-1.0, 1.0, size=(n, n))
        np.fill_diagonal(M, 0.0)
        M += np.diag(np.abs(M).sum(axis=1) + 0.5)
        q = rng.uniform(-2.0, 1.0, size=n)
        z = checker.lemke(M, q)
        assert checker.certify(M, q, z) is None
        found = []
        for size in range(n + 1):
            for J in itertools.combinations(range(n), size):
                x = np.zeros(n)
                if J:
                    x[list(J)] = np.linalg.solve(M[np.ix_(J, J)], -q[list(J)])
                if checker.certify(M, q, x) is None:
                    found.append(x)
        assert len(found) == 1 and checker.same_point(found[0], z)


def test_grid_verdict_proves_both_signs():
    assert checker.grid_verdict(identity(3, 3), 21, 0.05) == checker.STRICT
    assert checker.grid_verdict(-identity(3, 3), 21, 0.05) == checker.NOT_SEMI
    # zero diagonal: the margin is exactly 0, which no grid proves either way
    A = np.ones((3, 3, 3))
    A[tuple([np.arange(3)] * 3)] = 0.0
    assert checker.grid_verdict(A, 21, 0.05) is None


def test_margin_check_rejects_a_wrong_verdict():
    workloads = pytest.importorskip("workloads")
    A = identity(3, 3)
    beta = SimpleNamespace(value=1.0, argmin=np.array([1.0, 0.0, 0.0]))
    right = SimpleNamespace(verdict=checker.STRICT, beta=beta, counterexample=None)
    wrong = SimpleNamespace(verdict=checker.NOT_SEMI, beta=beta, counterexample=None)
    assert workloads._margin_check("diag", A, checker.STRICT, (right, True)) is None
    assert workloads._margin_check("diag", A, checker.STRICT, (wrong, True))[0] == workloads.WRONG
    assert workloads._margin_check("diag", A, checker.STRICT, (right, False))[0] == workloads.WRONG


def test_tracing_rebinds_every_importer_and_reports_absent_names(monkeypatch):
    tcpkit = pytest.importorskip("tcpkit")
    import tracing

    monkeypatch.delattr(tcpkit.tcp, "_support_roots")
    A = identity(3, 2)
    inst = tcpkit.TcpInstance(tcpkit.Tensor(A), np.array([-4.0, 1.0]))
    tracer = tracing.Tracer()
    with tracing.Installed(tracer) as installed:
        assert tcpkit.tcp.damped_newton is not tcpkit.optimize.damped_newton
        assert tcpkit.eigen.damped_newton is not tcpkit.optimize.damped_newton
        tcpkit.tcp._polish_active_set(inst, np.array([1.0, 0.0]), tcpkit.RunConfig())
    assert tcpkit.tcp.damped_newton is tcpkit.optimize.damped_newton
    assert installed.absent == ["tcp.supports_visited"]
    metrics = tracing.layer_metrics(tracer, installed.absent)
    assert "tcp.supports_visited" not in metrics and "tcp.roots_kept" not in metrics
    assert metrics["tcp.newton_starts"] == metrics["optimize.damped_newton.calls"] == 1
    assert metrics["tensor.contract_m1.calls"] >= 1

"""Sandwich-bound evaluation, generator gates, and the verification harness."""

import math

import numpy as np
import pytest

from tcpkit import (
    SANDWICH_TOL,
    STRICTLY_SEMI_POSITIVE,
    BoundViolationError,
    GeneratorSpec,
    Tensor,
    TcpInstance,
    beta,
    classify,
    estimate_norm,
    evaluate_instance,
    generate,
    identity_tensor,
    is_copositive,
    lower_bounds,
    min_pareto_h,
    min_pareto_z,
    reports_to_csv,
    reports_to_jsonl,
    solve_enumeration,
    upper_bounds,
    verify_bounds,
)
from tcpkit.config import RunConfig

FAST = RunConfig(starts=12)


def entry_map(report):
    return {e.entry_id: e for e in report.entries}


def full_reports(A, q, cfg=FAST):
    inst = TcpInstance(A, np.asarray(q, dtype=float))
    sols = solve_enumeration(inst, cfg)
    lam = min_pareto_h(A, cfg) if A.symmetric else None
    mu = min_pareto_z(A, cfg) if A.symmetric and A.m % 2 == 0 else None
    return evaluate_instance(
        inst, sols, beta(A, cfg).value, lam, mu, "test", cfg, estimate_budget=4
    )


# --- upper bounds --------------------------------------------------------------


def test_upper_bound_tight_on_identity_instance():
    A = identity_tensor(3, 2)
    inst = TcpInstance(A, np.array([-8.0, 1.0]))
    up = upper_bounds(inst, beta_value=1.0)
    assert up["inf"] == pytest.approx(8.0)
    (report,) = full_reports(A, [-8.0, 1.0])
    e = entry_map(report)["inf_general"]
    assert e.achieved == pytest.approx(8.0, abs=1e-9)  # equality
    assert e.passed


def test_upper_bounds_zero_for_nonnegative_offset():
    A = identity_tensor(3, 2)
    inst = TcpInstance(A, np.array([0.5, 1.0]))
    up = upper_bounds(inst, beta_value=1.0)
    assert up["inf"] == 0.0
    (report,) = full_reports(A, [0.5, 1.0])
    for e in report.entries:
        if e.applicable and e.achieved is not None:
            assert e.achieved == pytest.approx(0.0, abs=1e-12)
            assert e.passed


def test_two_norm_upper_bound_tight_on_identity():
    A = identity_tensor(4, 2)
    inst = TcpInstance(A, np.array([-1.0, -1.0]))
    mu = min_pareto_z(A, FAST)
    assert mu == pytest.approx(0.5, abs=1e-8)
    up = upper_bounds(inst, beta_value=1.0, mu_value=mu)
    assert up["two"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-8)
    (report,) = full_reports(A, [-1.0, -1.0])
    e = entry_map(report)["two_norm_symmetric"]
    assert e.achieved == pytest.approx(np.sqrt(2.0) ** 3, abs=1e-8)
    assert e.achieved == pytest.approx(e.upper, abs=1e-6)


def test_upper_bounds_reject_nonpositive_divisors():
    inst = TcpInstance(identity_tensor(3, 2), np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        upper_bounds(inst, beta_value=0.0)
    with pytest.raises(ValueError):
        upper_bounds(inst, beta_value=1.0, mu_value=-0.5)


# --- lower bounds ---------------------------------------------------------------


def test_lower_bound_identity_odd_order():
    inst = TcpInstance(identity_tensor(3, 2), np.array([-8.0, 1.0]))
    lo = lower_bounds(inst, FAST, estimate_budget=None)
    assert lo["inf"] == pytest.approx(8.0 / np.sqrt(2.0))
    assert lo["inf_even"] is None and lo["m"] is None


def test_lower_bound_identity_even_order_tight():
    A = identity_tensor(4, 2)
    inst = TcpInstance(A, np.array([-1.0, 0.0]))
    lo = lower_bounds(inst, FAST, estimate_budget=None)
    assert lo["inf_even"] == pytest.approx(1.0)
    (report,) = full_reports(A, [-1.0, 0.0])
    e = entry_map(report)["inf_even_order"]
    assert e.achieved == pytest.approx(1.0, abs=1e-9)
    assert e.lower == pytest.approx(1.0)
    assert e.passed


def test_matrix_bounds_pinch_identity():
    A = Tensor(np.eye(2))
    (report,) = full_reports(A, [-1.0, 2.0])
    e = entry_map(report)["matrix_inf"]
    assert e.lower == pytest.approx(1.0)
    assert e.upper == pytest.approx(1.0)
    assert e.achieved == pytest.approx(1.0, abs=1e-10)
    assert e.passed


def test_m_norm_lower_bound_scaled_identity():
    # tight case for the m-norm denominator: the (m-1)/m exponent matters
    # for scaled tensors (a 1/m exponent would claim 0.5 <= 0.21 here)
    A = identity_tensor(4, 2).scale(8.0)
    (report,) = full_reports(A, [-1.0, -1.0])
    e = entry_map(report)["m_norm_symmetric_even"]
    assert e.achieved == pytest.approx(2.0 ** (-9.0 / 4.0), abs=1e-9)
    assert e.lower == pytest.approx(2.0 ** 0.25 / 32.0 ** 0.75)
    assert e.lower <= e.achieved + 1e-6
    assert e.achieved == pytest.approx(e.upper, abs=1e-6)  # tight upper
    assert e.passed


def test_closed_form_lower_never_exceeds_empirical_variant():
    rng = np.random.default_rng(3)
    for seed in range(4):
        spec = GeneratorSpec("random_symmetric_copositive", 4, 3, seed=seed)
        A = generate(spec, FAST)
        inst = TcpInstance(A, rng.uniform(-2.0, 1.0, size=3))
        lo = lower_bounds(inst, FAST, estimate_budget=4)
        for key in ("inf", "two", "inf_even", "m"):
            emp = lo.get(f"{key}_empirical")
            if lo[key] is not None and emp is not None:
                assert lo[key] <= emp + 1e-8


def test_starts_reach_the_norm_estimates():
    # identity_shift m4 n4 seed 3: 0 and 8 random starts give different inf-norm estimates
    A = generate(GeneratorSpec("identity_shift", 4, 4, seed=3))
    inst = TcpInstance(A, -np.ones(4))
    est0 = estimate_norm(A, "T", math.inf, budget=0).empirical_norm
    est8 = estimate_norm(A, "T", math.inf, budget=8).empirical_norm
    assert abs(est0 - est8) > 1e-8 * est8
    scale = 4 ** ((4 - 2) / 2.0)  # n^((m-2)/2), the "inf" form's scale; ||q-||_inf = 1
    assert lower_bounds(inst, RunConfig(starts=0))["inf_empirical"] == pytest.approx(1 / (scale * est0), rel=1e-12)
    assert lower_bounds(inst)["inf_empirical"] == pytest.approx(1 / (scale * est8), rel=1e-12)


def test_monotone_slack_in_offset_scale():
    A = identity_tensor(3, 2)
    base = None
    for t in (1.0, 2.0, 5.0):
        (report,) = full_reports(A, [-1.0 * t, -0.5 * t])
        ach = entry_map(report)["inf_general"].achieved
        if base is None:
            base = ach
        else:
            assert ach == pytest.approx(base * t, rel=1e-8)


# --- generators -----------------------------------------------------------------


@pytest.mark.parametrize("family,m", [
    ("identity_shift", 3),
    ("diag_dominant", 3),
    ("random_symmetric_copositive", 4),
    ("matrix_m2", 2),
])
def test_generator_outputs_pass_the_gate(family, m):
    for seed in range(3):
        spec = GeneratorSpec(family, m, 3, seed=seed)
        A = generate(spec, FAST)
        assert classify(A, FAST).verdict == STRICTLY_SEMI_POSITIVE


def test_identity_shift_zero_noise_is_scaled_identity():
    spec = GeneratorSpec("identity_shift", 3, 2, seed=0, parameters={"epsilon": 0.0, "c": 2.5})
    A = generate(spec, FAST)
    assert A == identity_tensor(3, 2).scale(2.5)


def test_symmetric_family_is_strictly_copositive():
    for seed in range(3):
        spec = GeneratorSpec("random_symmetric_copositive", 3, 3, seed=seed)
        A = generate(spec, FAST)
        assert A.symmetric
        assert is_copositive(A, strict=True, cfg=FAST)


def test_matrix_family_symmetric_parameter():
    spec = GeneratorSpec("matrix_m2", 2, 3, seed=1, parameters={"symmetric": True})
    A = generate(spec, FAST)
    assert A.symmetric


def test_corrupted_tensor_fails_the_gate():
    spec = GeneratorSpec("diag_dominant", 3, 3, seed=5)
    A = generate(spec, FAST)
    data = A.data.copy()
    idx = np.arange(3)
    data[tuple([idx] * 3)] *= -1.0  # negated diagonal cannot be strictly semi-positive
    assert classify(Tensor(data), FAST).verdict != STRICTLY_SEMI_POSITIVE


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("nope", 3, 3)
    with pytest.raises(ValueError):
        GeneratorSpec("matrix_m2", 3, 3)


@pytest.mark.parametrize("key", ["symetric", "margin", "q_range"])
def test_generator_spec_rejects_unknown_parameters(key):
    with pytest.raises(ValueError, match=key):
        GeneratorSpec("matrix_m2", 2, 3, parameters={key: True})


@pytest.mark.parametrize("family, m, key", [("diag_dominant", 2, "symmetric"), ("diag_dominant", 3, "epsilon"),
                                            ("identity_shift", 3, "symmetric")])
def test_generator_spec_rejects_parameters_its_family_does_not_read(family, m, key):
    with pytest.raises(ValueError, match=key):
        GeneratorSpec(family, m, 3, parameters={key: True if key == "symmetric" else 0.0})


# --- harness ---------------------------------------------------------------------


def test_verify_bounds_small_runs_pass():
    for family, m in [("identity_shift", 3), ("matrix_m2", 2)]:
        spec = GeneratorSpec(family, m, 3, seed=7)
        reports = verify_bounds(spec, 6, FAST, estimate_budget=None)
        assert len(reports) >= 6
        assert all(r.passed for r in reports)
        assert len({r.instance_id for r in reports}) == 6


def test_verify_bounds_checks_every_solution():
    spec = GeneratorSpec("random_symmetric_copositive", 4, 2, seed=9)
    reports = verify_bounds(spec, 4, FAST, estimate_budget=None)
    for r in reports:
        applicable = [e for e in r.entries if e.applicable]
        assert applicable
        for e in applicable:
            assert e.passed
            if e.lower is not None:
                assert e.lower <= e.achieved + 1e-6
            if e.upper is not None:
                assert e.achieved <= e.upper + 1e-6


def test_single_solution_satisfies_all_norm_sandwiches_at_once():
    spec = GeneratorSpec("random_symmetric_copositive", 4, 3, seed=2)
    reports = verify_bounds(spec, 3, FAST, estimate_budget=None)
    for r in reports:
        ids = {e.entry_id for e in r.entries if e.applicable and e.passed}
        assert {"inf_general", "inf_even_order", "two_norm_symmetric", "m_norm_symmetric_even"} <= ids


def test_margin_is_checked_against_the_least_pareto_value(monkeypatch):
    # beta <= lambda_min_pareto_h + SANDWICH_TOL * max(1, |lambda|) on symmetric tensors;
    # the check reuses the Pareto value the upper bounds already divide by
    import tcpkit.bounds as bounds_mod

    spec = GeneratorSpec("random_symmetric_copositive", 3, 2, seed=4)
    b = beta(generate(spec, FAST), FAST).value
    slack = SANDWICH_TOL * max(1.0, abs(b))
    monkeypatch.setattr(bounds_mod, "min_pareto_h", lambda A, cfg: b - 0.5 * slack)
    assert verify_bounds(spec, 1, FAST, estimate_budget=None)
    monkeypatch.setattr(bounds_mod, "min_pareto_h", lambda A, cfg: b - 2.0 * slack)
    with pytest.raises(RuntimeError, match="exceeds the least Pareto H value") as err:
        verify_bounds(spec, 1, FAST, estimate_budget=None)
    assert not isinstance(err.value, BoundViolationError)


def test_violation_error_carries_counterexample():
    # force a violation by evaluating with an inflated divisor
    A = identity_tensor(3, 2)
    inst = TcpInstance(A, np.array([-8.0, 1.0]))
    sols = solve_enumeration(inst, FAST)
    reports = evaluate_instance(inst, sols, 4.0, None, None, "forced", FAST, None)
    assert not reports[0].passed
    err = BoundViolationError(inst, reports[0])
    payload = err.payload()
    assert payload["instance"]["q"] == [-8.0, 1.0]
    assert any(e["passed"] is False for e in payload["report"]["entries"])


def test_report_serialization_round_trip():
    import json

    spec = GeneratorSpec("diag_dominant", 2, 2, seed=3)
    reports = verify_bounds(spec, 3, FAST, estimate_budget=None)
    jsonl = reports_to_jsonl(reports)
    lines = [json.loads(line) for line in jsonl.strip().split("\n")]
    assert len(lines) == len(reports)
    assert all("entries" in obj for obj in lines)
    csv_text = reports_to_csv(reports)
    header, *rows = csv_text.strip().split("\n")
    assert header.startswith("instance_id,solution,entry_id,lower,achieved,upper")
    assert len(rows) == sum(len(r.entries) for r in reports)


# --- the sandwich table and its provenance -----------------------------------------

COP = ("copositive_equivalent",)
ODD_TWO = "symmetric; odd order leaves the upper-bound divisor undefined"
# every entry as (entry_id, quantity, applicable, reason, flags, lower is None,
# upper is None, lower_empirical is None), by (order, symmetric)
SANDWICH_TABLE = {
    (2, True): [
        ("inf_general", "inf", True, "strictly semi-positive", COP, False, False, False),
        ("inf_even_order", "inf", True, "even order", COP, False, False, False),
        ("two_norm_symmetric", "two", True, "symmetric", COP, False, False, False),
        ("m_norm_symmetric_even", "m", True, "symmetric and even order", COP, False, False, False),
        ("matrix_inf", "inf", True, "order 2", (), False, False, True),
        ("matrix_two_symmetric", "two", True, "order 2, symmetric", (), False, False, True),
    ],
    (2, False): [
        ("inf_general", "inf", True, "strictly semi-positive", (), False, False, False),
        ("inf_even_order", "inf", True, "even order", (), False, False, False),
        ("two_norm_symmetric", "two", False, "not symmetric", (), True, True, True),
        ("m_norm_symmetric_even", "m", False, "not symmetric", (), True, True, True),
        ("matrix_inf", "inf", True, "order 2", (), False, False, True),
        ("matrix_two_symmetric", "two", False, "not symmetric", (), False, True, True),
    ],
    (3, True): [
        ("inf_general", "inf", True, "strictly semi-positive", COP, False, False, False),
        ("inf_even_order", "inf", False, "odd order", COP, True, False, True),
        ("two_norm_symmetric", "two", True, ODD_TWO, COP + ("interpretation_dependent",),
         False, True, False),
        ("m_norm_symmetric_even", "m", False, "odd order", COP, True, False, True),
    ],
    (3, False): [
        ("inf_general", "inf", True, "strictly semi-positive", (), False, False, False),
        ("inf_even_order", "inf", False, "odd order", (), True, False, True),
        ("two_norm_symmetric", "two", False, "not symmetric", (), True, True, True),
        ("m_norm_symmetric_even", "m", False, "not symmetric", (), True, True, True),
    ],
    (4, True): [
        ("inf_general", "inf", True, "strictly semi-positive", COP, False, False, False),
        ("inf_even_order", "inf", True, "even order", COP, False, False, False),
        ("two_norm_symmetric", "two", True, "symmetric", COP, False, False, False),
        ("m_norm_symmetric_even", "m", True, "symmetric and even order", COP, False, False, False),
    ],
    (4, False): [
        ("inf_general", "inf", True, "strictly semi-positive", (), False, False, False),
        ("inf_even_order", "inf", True, "even order", (), False, False, False),
        ("two_norm_symmetric", "two", False, "not symmetric", (), True, True, True),
        ("m_norm_symmetric_even", "m", False, "not symmetric", (), True, True, True),
    ],
}


@pytest.mark.parametrize("m,symmetric", sorted(SANDWICH_TABLE))
def test_sandwich_table(m, symmetric):
    from tcpkit.bounds import _bound_templates

    data = identity_tensor(m, 2).data.copy()
    if not symmetric:
        data[(0,) + (1,) * (m - 1)] = 0.25
    A = Tensor(data)
    assert A.symmetric is symmetric
    inst = TcpInstance(A, np.array([-1.0, 0.5]))
    lam = 1.0 if symmetric else None
    mu = 1.0 if symmetric and m % 2 == 0 else None
    table = [
        (e.entry_id, e.quantity, e.applicable, e.reason, e.flags,
         e.lower is None, e.upper is None, e.lower_empirical is None)
        for e in _bound_templates(inst, 1.0, lam, mu, FAST, 2)
    ]
    assert table == SANDWICH_TABLE[m, symmetric]


@pytest.mark.parametrize("family,m,n,heuristic", [
    ("random_symmetric_copositive", 3, 1, False),
    ("diag_dominant", 3, 1, False),  # every tensor of dimension 1 is symmetric
    ("random_symmetric_copositive", 3, 2, True),
    ("random_symmetric_copositive", 2, 3, False),
    ("diag_dominant", 3, 2, False),  # not symmetric: no Pareto values taken
])
def test_pareto_heuristic_flag_follows_spectrum_completeness(family, m, n, heuristic):
    from tcpkit import spectrum

    spec = GeneratorSpec(family, m, n, seed=3)
    report = verify_bounds(spec, 1, FAST, estimate_budget=None)[0]
    assert report.provenance["pareto_values_heuristic"] is heuristic
    A = generate(spec, FAST)
    if A.symmetric:
        assert (spectrum(A, "pareto_h", FAST).completeness == "heuristic") is heuristic

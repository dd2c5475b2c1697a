"""Closed-form sandwich bounds on solution norms, generators, and the harness.

For a strictly semi-positive instance every solution norm (infinity, 2-
and m-norm, each raised to m-1) is sandwiched between a closed-form lower
bound built from row absolute sums and an upper bound dividing the matching
norm of the negative part of q by a structural positive quantity (the
activity margin for the infinity norm, the least Pareto value for the
symmetric 2-/m-norm cases).  ``verify_bounds`` generates gated instances,
solves them exactly, and checks every applicable sandwich at 1e-6, failing
loudly with the counterexample when one is violated.

Bounds use the closed-form denominators, so reports carry no optimization
noise; the raw operator-norm lower bounds are additionally evaluated with
empirical norm estimates, which can only tighten them, and the reports
keep both so the dominance is checkable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig, DEFAULT_CONFIG
from .eigen import _completeness, pareto_h_eigenvalues, pareto_z_eigenvalues
from .operators import OP_ROOT, OP_SCALED, _pnorm_rows, estimate_norm, norm_bound
from .semipositive import STRICTLY_SEMI_POSITIVE, Classification, classify
from .tcp import TcpInstance, TcpSolution, solve_enumeration, solve_iterative
from .tensor import JsonRecord, Tensor, identity_tensor, pos_part, symmetrize

__all__ = [
    "GeneratorSpec",
    "BoundEntry",
    "BoundsReport",
    "BoundViolationError",
    "GENERATOR_FAMILIES",
    "SANDWICH_TOL",
    "generate",
    "min_pareto_h",
    "min_pareto_z",
    "upper_bounds",
    "lower_bounds",
    "evaluate_instance",
    "verify_bounds",
    "reports_to_jsonl",
    "reports_to_csv",
]

SANDWICH_TOL = 1e-6
GENERATOR_MARGIN = 0.5  # least diagonal excess of the dominant families
Q_RANGE = (-2.0, 1.0)   # q ~ U(Q_RANGE) on every instance but each tenth
# family -> the GeneratorSpec.parameters keys its draw reads
GENERATOR_PARAMETERS = {
    "identity_shift": ("c", "epsilon"),
    "diag_dominant": (),
    "random_symmetric_copositive": (),
    "matrix_m2": ("symmetric",),
}
GENERATOR_FAMILIES = tuple(GENERATOR_PARAMETERS)


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    m: int
    n: int
    seed: int = 0
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in GENERATOR_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "matrix_m2" and self.m != 2:
            raise ValueError("matrix_m2 generates order-2 tensors only")
        if self.m < 2 or self.n < 1:
            raise ValueError("need m >= 2 and n >= 1")
        known = GENERATOR_PARAMETERS[self.family]
        unknown = sorted(set(self.parameters) - set(known))
        if unknown:
            raise ValueError(f"{self.family} reads {list(known) or 'no parameter'}, not {unknown}")


def _draw_tensor(spec: GeneratorSpec, rng: np.random.Generator) -> Tensor:
    m, n, params = spec.m, spec.n, spec.parameters
    diag_cell = tuple([np.arange(n)] * m)
    if spec.family == "identity_shift":
        eps = float(params.get("epsilon", 0.3))
        noise = Tensor(rng.uniform(-1.0, 1.0, size=(n,) * m))
        c = params.get("c")
        if c is None:
            c = GENERATOR_MARGIN + eps * norm_bound(noise, OP_SCALED, np.inf) * n ** ((m - 2) / 2.0)
        return identity_tensor(m, n).scale(float(c)).add(noise.scale(eps))
    if spec.family == "random_symmetric_copositive":
        data = symmetrize(Tensor(rng.uniform(0.0, 1.0, size=(n,) * m))).data.copy()
        data[diag_cell] += GENERATOR_MARGIN + rng.uniform(0.0, 1.0, size=n)
        return Tensor(data)
    # diag_dominant and matrix_m2: strictly diagonally dominant with positive
    # diagonal; a symmetric matrix_m2 draw is averaged with its transpose first
    data = rng.uniform(-1.0, 1.0, size=(n,) * m)
    if spec.family == "matrix_m2" and params.get("symmetric", False):
        data = (data + data.T) / 2.0
    data[diag_cell] = 0.0
    off = np.abs(data).reshape(n, -1).sum(axis=1)
    data[diag_cell] = off + GENERATOR_MARGIN + rng.uniform(0.0, 1.0, size=n)
    return Tensor(data)


def _generate_gated(
    spec: GeneratorSpec, instance_index: int, cfg: RunConfig
) -> tuple[Tensor, Classification]:
    for attempt in range(100):
        rng = RunConfig(seed=spec.seed).substream(
            spec.family, spec.m, spec.n, "tensor", instance_index, attempt
        )
        A = _draw_tensor(spec, rng)
        cls = classify(A, cfg)
        if cls.verdict == STRICTLY_SEMI_POSITIVE:
            return A, cls
    raise RuntimeError(
        f"generator {spec.family} failed to produce a strictly semi-positive "
        f"tensor in 100 attempts (m={spec.m}, n={spec.n})"
    )


def generate(spec: GeneratorSpec, cfg: RunConfig = DEFAULT_CONFIG) -> Tensor:
    """Draw one tensor from the family; re-checked strictly semi-positive."""
    return _generate_gated(spec, 0, cfg)[0]


def _least_value(records) -> float:
    # every symmetric tensor has a Pareto value, so finding none is an internal miss
    if not records:
        raise RuntimeError("no Pareto value found; cannot form an upper bound")
    return min(r.value for r in records)


def min_pareto_h(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> float:
    return _least_value(pareto_h_eigenvalues(A, cfg))


def min_pareto_z(A: Tensor, cfg: RunConfig = DEFAULT_CONFIG) -> float:
    return _least_value(pareto_z_eigenvalues(A, cfg))


@dataclass
class BoundEntry(JsonRecord):
    """One sandwich: lower <= (solution norm)^(m-1) <= upper, when applicable."""

    entry_id: str
    quantity: str  # which solution norm: "inf", "two" or "m"
    lower: float | None = None
    upper: float | None = None
    lower_empirical: float | None = None
    achieved: float | None = None
    applicable: bool = True
    reason: str = ""
    flags: tuple[str, ...] = ()
    passed: bool | None = None

    def evaluate(self, achieved: float, tol: float = SANDWICH_TOL) -> "BoundEntry":
        ok = True
        if self.applicable:
            if self.lower is not None and achieved < self.lower - tol:
                ok = False
            if self.upper is not None and achieved > self.upper + tol:
                ok = False
        return replace(self, achieved=achieved, passed=ok)


@dataclass
class BoundsReport(JsonRecord):
    instance_id: str
    solution_index: int
    entries: list[BoundEntry]
    provenance: dict
    passed: bool = True


class BoundViolationError(RuntimeError):
    """An applicable sandwich failed; carries the offending instance and report."""

    def __init__(self, instance: TcpInstance, report: BoundsReport):
        failing = [e.entry_id for e in report.entries if e.passed is False]
        super().__init__(f"bound violation on {report.instance_id}: {failing}")
        self.instance = instance
        self.report = report

    def payload(self) -> dict:
        return {"instance": self.instance.to_dict(), "report": self.report.to_jsonable()}


def upper_bounds(
    inst: TcpInstance,
    beta_value: float,
    lambda_value: float | None = None,
    mu_value: float | None = None,
) -> dict[str, float]:
    """Division-form upper bounds on solution norms raised to m-1.

    The infinity-norm bound divides by the activity margin; the symmetric
    2-norm and m-norm bounds divide by the least Pareto values and are
    present only when those are supplied (symmetric tensors).
    """
    if beta_value <= 0:
        raise ValueError("nonpositive activity margin; instance is misclassified")
    m = inst.A.m
    neg = pos_part(-inst.q)
    out = {"inf": float(_pnorm_rows(neg, math.inf)) / beta_value}
    for key, p, divisor in (("two", 2.0, mu_value), ("m", m / (m - 1.0), lambda_value)):
        if divisor is not None:
            if divisor <= 0:
                raise ValueError("nonpositive Pareto divisor; instance is misclassified")
            out[key] = float(_pnorm_rows(neg, p)) / divisor
    return out


def lower_bounds(
    inst: TcpInstance,
    cfg: RunConfig = DEFAULT_CONFIG,
    estimate_budget: int | None = 8,
) -> dict[str, float | None]:
    """Closed-form lower bounds on solution norms raised to m-1.

    Keys: "inf" (any order), "inf_even" (even order, via the root
    operator), "two", "m" (even order).  When ``estimate_budget`` is not
    None the raw operator-norm forms are also evaluated with empirical
    norm estimates (``cfg.budget(estimate_budget)`` random starts each)
    under keys suffixed ``_empirical``; estimates sit below the
    closed-form bounds, so these can only be larger (tighter).  At order 2
    the estimates are the exact norms (:func:`tcpkit.operators.estimate_norm`);
    above it they are heuristic, and the values are reported for comparison.
    """
    A, q = inst.A, inst.q
    m, n = A.m, A.n
    neg = pos_part(-q)
    q_inf = float(_pnorm_rows(neg, math.inf))
    if A.row_abs_sums().max() == 0.0:
        raise ValueError("zero tensor: the row-sum denominators vanish "
                         "(the instance cannot be strictly semi-positive)")
    # key, operator, p, numerator, scale, exponent: numerator / (scale * norm^exponent),
    # with the operator's closed-form norm bound, or its empirical estimate
    forms = [
        ("inf", OP_SCALED, math.inf, q_inf, n ** ((m - 2) / 2.0), 1),
        ("two", OP_SCALED, 2.0, float(_pnorm_rows(neg, 2.0)), 1.0, 1),
    ]
    if m % 2 == 0:
        forms += [
            ("inf_even", OP_ROOT, math.inf, q_inf, 1.0, m - 1),
            ("m", OP_ROOT, float(m), float(_pnorm_rows(neg, float(m))), 1.0, m - 1),
        ]
    out: dict[str, float | None] = {"inf_even": None, "m": None}
    for key, op, p, numerator, scale, exponent in forms:
        out[key] = numerator / (scale * norm_bound(A, op, p) ** exponent)
        if estimate_budget is not None:
            est = estimate_norm(A, op, p, budget=cfg.budget(estimate_budget), cfg=cfg).empirical_norm
            out[key + "_empirical"] = numerator / (scale * est**exponent) if est > 0 else None
    return out


def _bound_templates(
    inst: TcpInstance,
    beta_value: float,
    lambda_value: float | None,
    mu_value: float | None,
    cfg: RunConfig,
    estimate_budget: int | None,
) -> list[BoundEntry]:
    A = inst.A
    even = A.m % 2 == 0
    lo = lower_bounds(inst, cfg, estimate_budget)
    up = upper_bounds(inst, beta_value, lambda_value, mu_value)
    sym_flags = ("copositive_equivalent",) if A.symmetric else ()

    def entry(entry_id, quantity, key, applicable, reason, flags=sym_flags, empirical=True):
        # the upper end is the bound on the norm itself, the lower end the one keyed by key
        return BoundEntry(
            entry_id, quantity, lower=lo[key], upper=up.get(quantity),
            lower_empirical=lo.get(key + "_empirical") if empirical else None,
            applicable=applicable, reason=reason, flags=flags,
        )

    entries = [
        entry("inf_general", "inf", "inf", True, "strictly semi-positive"),
        entry("inf_even_order", "inf", "inf_even", even, "even order" if even else "odd order"),
    ]
    if A.symmetric:
        entries += [
            entry("two_norm_symmetric", "two", "two", True,
                  "symmetric" if even else "symmetric; odd order leaves the upper-bound divisor undefined",
                  sym_flags if even else sym_flags + ("interpretation_dependent",)),
            entry("m_norm_symmetric_even", "m", "m", even,
                  "symmetric and even order" if even else "odd order"),
        ]
    else:
        entries += [
            BoundEntry(entry_id, quantity, applicable=False, reason="not symmetric")
            for entry_id, quantity in (("two_norm_symmetric", "two"), ("m_norm_symmetric_even", "m"))
        ]
    if A.m == 2:
        entries += [
            entry("matrix_inf", "inf", "inf", True, "order 2", (), False),
            entry("matrix_two_symmetric", "two", "two", A.symmetric,
                  "order 2, symmetric" if A.symmetric else "not symmetric", (), False),
        ]
    return entries


def _achieved(x: np.ndarray, m: int) -> dict[str, float]:
    return {key: float(_pnorm_rows(x, p)) ** (m - 1)
            for key, p in (("inf", math.inf), ("two", 2.0), ("m", float(m)))}


def evaluate_instance(
    inst: TcpInstance,
    solutions: list[TcpSolution],
    beta_value: float,
    lambda_value: float | None,
    mu_value: float | None,
    instance_id: str,
    cfg: RunConfig = DEFAULT_CONFIG,
    estimate_budget: int | None = 8,
    provenance: dict | None = None,
) -> list[BoundsReport]:
    templates = _bound_templates(inst, beta_value, lambda_value, mu_value, cfg, estimate_budget)
    reports = []
    for j, sol in enumerate(solutions):
        ach = _achieved(sol.x, inst.A.m)
        entries = [t.evaluate(ach[t.quantity]) for t in templates]
        reports.append(
            BoundsReport(
                instance_id=instance_id,
                solution_index=j,
                entries=entries,
                provenance=provenance or {},
                passed=all(e.passed for e in entries),
            )
        )
    return reports


def verify_bounds(
    spec: GeneratorSpec,
    count: int,
    cfg: RunConfig = DEFAULT_CONFIG,
    estimate_budget: int | None = 8,
) -> list[BoundsReport]:
    """Generate, solve, and check ``count`` instances of one family.

    Every certified solution of every instance is evaluated against every
    applicable sandwich; the first violation aborts the run by raising
    :class:`BoundViolationError` with the instance attached.  Roughly one
    instance in ten gets a nonnegative q to exercise the zero-solution
    branch, where all bounds and achieved norms collapse to zero.  On
    symmetric tensors the margin must also stay below the least Pareto H
    value, the paper's eigenvalue bound
    ``beta <= lambda + SANDWICH_TOL * max(1, |lambda|)``; a failure is an
    internal fault and raises ``RuntimeError``.
    """
    reports: list[BoundsReport] = []
    for k in range(count):
        A, cls = _generate_gated(spec, k, cfg)
        rng = RunConfig(seed=spec.seed).substream(spec.family, spec.m, spec.n, "q", k)
        if k % 10 == 9:
            q = rng.uniform(0.0, 1.0, size=spec.n)
        else:
            q = rng.uniform(*Q_RANGE, size=spec.n)
        inst = TcpInstance(A, q)
        solutions = solve_enumeration(inst, cfg)
        if not solutions:
            solutions = [solve_iterative(inst, cfg)]
        lam = mu = None
        if A.symmetric:
            lam = min_pareto_h(A, cfg)
            if cls.beta.value > lam + SANDWICH_TOL * max(1.0, abs(lam)):
                raise RuntimeError(f"internal invariant failed on {spec.family} instance {k}: "
                                   f"beta = {cls.beta.value!r} exceeds the least Pareto H value {lam!r}")
            if A.m % 2 == 0:
                mu = min_pareto_z(A, cfg)
        provenance = {
            "family": spec.family,
            "beta_certified_by": cls.beta.certified_by,
            "pareto_values_heuristic": A.symmetric and _completeness(A) == "heuristic",
            "norm_estimates": "exact" if A.m == 2 else "heuristic",
            "solver": solutions[0].method,
        }
        instance_id = f"{spec.family}-m{spec.m}-n{spec.n}-s{spec.seed}-{k:04d}"
        for report in evaluate_instance(
            inst, solutions, cls.beta.value, lam, mu,
            instance_id, cfg, estimate_budget, provenance,
        ):
            if not report.passed:
                raise BoundViolationError(inst, report)
            reports.append(report)
    return reports


def reports_to_jsonl(reports: list[BoundsReport]) -> str:
    return "\n".join(json.dumps(r.to_jsonable(), sort_keys=True) for r in reports) + "\n"


def reports_to_csv(reports: list[BoundsReport]) -> str:
    lines = ["instance_id,solution,entry_id,lower,achieved,upper,applicable,passed"]
    for r in reports:
        for e in r.entries:
            ends = ["" if v is None else repr(v) for v in (e.lower, e.achieved, e.upper)]
            lines.append(",".join([r.instance_id, str(r.solution_index), e.entry_id, *ends,
                                   str(e.applicable).lower(), str(e.passed).lower()]))
    return "\n".join(lines) + "\n"

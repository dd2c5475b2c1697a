"""Command-line front-end.

Commands: classify | beta | eigen | norms | solve | verify-bounds.
Exit codes: 0 success, 2 malformed input, 3 solver non-convergence,
4 bound violation (the counterexample is serialized next to the report),
5 internal failure (an invariant the library checks itself, such as the
margin staying below the least Pareto H value, or a generator gate that
never passed).
All randomness flows from --seed through per-task substreams, so repeated
runs with identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounds import (
    GENERATOR_FAMILIES,
    BoundViolationError,
    GeneratorSpec,
    reports_to_csv,
    reports_to_jsonl,
    verify_bounds,
)
from .config import RunConfig
from .eigen import EIGEN_KINDS, spectrum
from .operators import OP_ROOT, OP_SCALED, estimate_norm
from .semipositive import beta as compute_beta
from .semipositive import classify
from .tcp import SUPPORT_CAP, NonConvergenceError, TcpInstance, solve_enumeration, solve_iterative
from .tensor import TensorFormatError, load_tensor

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BOUND_VIOLATION = 4
EXIT_INTERNAL = 5


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    try:
        return RunConfig(tol=float(text)).tol
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from None


_COMMON_FLAGS = (
    ("--tol", dict(type=_tolerance, default=1e-6, help="sign-decision tolerance (default 1e-6)")),
    ("--grid", dict(type=_nonnegative_int, default=None, help="grid points per axis (default: by dimension)")),
    ("--starts", dict(type=_nonnegative_int, default=None, help="override every multistart budget")),
    ("--seed", dict(type=int, default=0, help="64-bit master seed (default 0)")),
    ("--format", dict(choices=("json", "csv", "text"), default="json", help="output format (default json)")),
)


# Every command is (args, cfg) -> (result, text lines, csv text or None);
# ``main`` wraps the result in the {command, config, result} payload.
def _cmd_classify(args, cfg: RunConfig):
    cls = classify(load_tensor(args.tensor), cfg)
    result = cls.to_jsonable()
    lines = [f"{cls.verdict}, beta={cls.beta.value}"]
    if cls.counterexample is not None:
        lines.append(f"counterexample: {result['counterexample']}")
    return result, lines, None


def _cmd_beta(args, cfg: RunConfig):
    res = compute_beta(load_tensor(args.tensor), cfg)
    result = res.to_jsonable()
    lines = [
        f"beta={res.value}",
        f"argmin={result['argmin']}",
        f"certified_by={res.certified_by} grid={res.grid_resolution}",
    ]
    return result, lines, None


def _cmd_eigen(args, cfg: RunConfig):
    summary = spectrum(load_tensor(args.tensor), args.kind, cfg)
    result = summary.to_jsonable()
    lines = [f"kind={args.kind} completeness={summary.completeness}"]
    for rec in result["records"]:
        lines.append(f"value={rec['value']} support={rec['support']} residual={rec['residual']:.2e}")
    for name in ("delta_h_plus", "delta_z_plus", "lambda_min_pareto_h", "mu_min_pareto_z"):
        val = result[name]
        if val is not None:
            lines.append(f"{name}={val}")
    return result, lines, None


def _cmd_norms(args, cfg: RunConfig):
    A = load_tensor(args.tensor)
    m = A.m
    # each p once: 2, m and m/(m-1) coincide at m = 2
    p_values = dict.fromkeys([1.0, 2.0, float(m), m / (m - 1.0), math.inf])
    ops = [OP_SCALED] + ([OP_ROOT] if m % 2 == 0 else [])
    rows = []
    for op in ops:
        for p in p_values:
            report = estimate_norm(A, op, p, cfg=cfg)
            rows.append(report.to_jsonable())
    lines = ["op,p,empirical_norm,closed_form_bound"]
    for r in rows:
        lines.append(f"{r['op']},{r['p']},{r['empirical_norm']},{r['closed_form_bound']}")
    return {"reports": rows}, lines, "\n".join(lines) + "\n"


def _cmd_solve(args, cfg: RunConfig):
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            inst = TcpInstance.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise TensorFormatError(f"cannot read instance file {args.instance}: {exc}") from exc
    method = args.method
    if method == "auto":
        method = "enumeration" if inst.A.n <= SUPPORT_CAP else "iterative"
    if method == "enumeration":
        solutions = solve_enumeration(inst, cfg)
        status = "ok" if solutions else "no_solutions_found"
        lines = [f"status={status}"]
    else:
        solutions, status, lines = [solve_iterative(inst, cfg)], "ok", []
    records = [s.to_jsonable() for s in solutions]
    lines += [f"x={r['x']}" for r in records]
    return {"status": status, "solutions": records}, lines, None


def _cmd_verify_bounds(args, cfg: RunConfig):
    spec = GeneratorSpec(
        family=args.family,
        m=args.m,
        n=args.n,
        seed=args.seed,
        parameters={"symmetric": args.symmetric} if args.symmetric else {},
    )
    reports = verify_bounds(spec, args.count, cfg)
    csv_text = reports_to_csv(reports)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(reports_to_jsonl(reports))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    result = {
        "family": spec.family,
        "m": spec.m,
        "n": spec.n,
        "seed": spec.seed,
        "instances": args.count,
        "reports": len(reports),
        "violations": 0,
    }
    return result, [f"{len(reports)} reports, 0 violations"], csv_text


_COMMANDS = {
    "classify": (_cmd_classify, "three-way semi-positivity verdict"),
    "beta": (_cmd_beta, "activity margin over the nonnegative unit sphere"),
    "eigen": (_cmd_eigen, "eigenpair enumeration and derived minima"),
    "norms": (_cmd_norms, "closed-form bounds and empirical operator norms"),
    "solve": (_cmd_solve, "solve a complementarity instance"),
    "verify-bounds": (_cmd_verify_bounds, "generate instances and check every sandwich"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcpkit",
        description="Semi-positivity margins, orthant/Pareto eigenpairs, operator-norm "
        "bounds, complementarity solving, and solution-norm bound verification "
        "for dense order-m tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    for name in ("classify", "beta", "eigen", "norms"):
        parsers[name].add_argument("tensor", help="tensor JSON file")
    parsers["eigen"].add_argument("--kind", choices=EIGEN_KINDS, required=True)
    p = parsers["solve"]
    p.add_argument("instance", help="instance JSON file: {tensor, q}")
    p.add_argument("--method", choices=("enumeration", "iterative", "auto"), default="auto")
    p = parsers["verify-bounds"]
    p.add_argument("--family", choices=GENERATOR_FAMILIES, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=_nonnegative_int, default=20)
    p.add_argument("--symmetric", action="store_true", help="symmetric variant (matrix_m2 only)")
    p.add_argument("--report", default=None, help="write one report per line (JSON) here")
    p.add_argument("--csv", default=None, help="write the CSV summary here")
    p.add_argument("--violation-out", default="bound_violation.json")
    for p in parsers.values():
        for flag, kwargs in _COMMON_FLAGS:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(tol=args.tol, grid=args.grid, starts=args.starts, seed=args.seed)
        try:
            result, text_lines, csv_text = _COMMANDS[args.command][0](args, cfg)
        except BoundViolationError as err:  # a RuntimeError: caught before the mapping below
            with open(args.violation_out, "w", encoding="utf-8") as fh:
                json.dump(err.payload(), fh, sort_keys=True, indent=2)
            print(f"bound violation; counterexample written to {args.violation_out}", file=sys.stderr)
            return EXIT_BOUND_VIOLATION
    except (ValueError, FileNotFoundError, RuntimeError) as exc:  # TensorFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonConvergenceError):
            return EXIT_NO_CONVERGENCE
        return EXIT_INTERNAL if isinstance(exc, RuntimeError) else EXIT_BAD_INPUT
    if args.format == "json":
        print(json.dumps({"command": args.command, "config": cfg.to_dict(), "result": result}, sort_keys=True, indent=2))
    elif args.format == "csv":
        if csv_text is None:
            rows = ["key,value"]
            rows.extend(f"{k},{json.dumps(v, sort_keys=True)}" for k, v in sorted(result.items()))
            csv_text = "\n".join(rows) + "\n"
        sys.stdout.write(csv_text)
    else:
        for line in text_lines:
            print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

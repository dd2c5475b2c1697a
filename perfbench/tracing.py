"""Traced run: wraps tcpkit's layer functions from outside the package.

Each wrapped function is rebound in every tcpkit module that holds it (for
example ``damped_newton`` in both ``tcp`` and ``eigen``), so calls between
modules are seen too.  Every call records a span (name, start, end, parent)
and adds to per-function counters; a span's self time is its duration
minus the time its child spans cover.  Times are CPU time of the process.  A name that no longer exists in the
package is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = [
    ("tensor.contract_m1.calls", "count"),
    ("tensor.contract_m1.self_s", "s"),
    ("tensor.jacobian_m1.calls", "count"),
    ("tensor.jacobian_m1.self_s", "s"),
    ("tensor.contract_m1_batch.calls", "count"),
    ("tensor.contract_m1_batch.rows", "count"),
    ("tensor.contract_m1_batch.self_s", "s"),
    ("tensor.madds_computed", "count"),
    ("tensor.principal_subtensor.calls", "count"),
    ("tensor.principal_subtensor.self_s", "s"),
    ("optimize.damped_newton.calls", "count"),
    ("optimize.damped_newton.converged", "count"),
    ("optimize.damped_newton.failed", "count"),
    ("optimize.damped_newton.useful_ratio", "ratio"),
    ("optimize.damped_newton.residual_evals", "count"),
    ("optimize.damped_newton.self_s", "s"),
    ("optimize.damped_newton.failed_s", "s"),
    ("optimize.minimize_nonneg_sphere.calls", "count"),
    ("optimize.minimize_nonneg_sphere.self_s", "s"),
    ("optimize.grid_points", "count"),
    ("optimize.pattern_search_min.calls", "count"),
    ("optimize.pattern_search_min.sweeps", "count"),
    ("optimize.pattern_search_min.self_s", "s"),
    ("semipositive.classify.calls", "count"),
    ("semipositive.classify.self_s", "s"),
    ("semipositive.beta.calls", "count"),
    ("semipositive.beta.self_s", "s"),
    ("semipositive.violation_searches", "count"),
    ("semipositive.is_copositive.calls", "count"),
    ("semipositive.is_copositive.self_s", "s"),
    ("eigen.pareto_h.calls", "count"),
    ("eigen.pareto_h.self_s", "s"),
    ("eigen.pareto_z.calls", "count"),
    ("eigen.pareto_z.self_s", "s"),
    ("eigen.newton_starts", "count"),
    ("eigen.records", "count"),
    ("operators.estimate_norm.calls", "count"),
    ("operators.estimate_norm.self_s", "s"),
    ("operators.pattern_ascents", "count"),
    ("tcp.solve_enumeration.calls", "count"),
    ("tcp.solve_enumeration.self_s", "s"),
    ("tcp.supports_visited", "count"),
    ("tcp.newton_starts", "count"),
    ("tcp.roots_kept", "count"),
    ("tcp.solutions", "count"),
    ("tcp.solve_iterative.calls", "count"),
    ("tcp.solve_iterative.self_s", "s"),
    ("tcp.verify_solution.calls", "count"),
    ("bounds.verify_bounds.calls", "count"),
    ("bounds.verify_bounds.self_s", "s"),
    ("bounds.gate_attempts", "count"),
    ("bounds.lower_bounds.self_s", "s"),
    ("bounds.reports", "count"),
]
# Metrics of the trace itself.
TRACE_METRICS = [
    ("trace.spans", "count"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Span recorder with per-name self time and named counters."""

    def __init__(self, keep_spans: bool = True):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.keep_spans = keep_spans
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans = 0
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self.counts: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.observed: list = []  # (function name, instance, result) seen inside bounds

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = self.spans
        self.spans += 1
        if self.keep_spans:
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        self._stack.append([idx, nid, time.process_time(), 0.0])

    def exit(self) -> float:
        end = time.process_time()
        idx, nid, start, child = self._stack.pop()
        dur = end - start
        self.self_s[self.names[nid]] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if self.keep_spans:
            self.span_start[idx] = start
            self.span_end[idx] = end
        return dur

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _counting(fn, tracer: Tracer, key: str):
    """fn with every call counted under key (residual evaluations, sweeps)."""

    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _make_wrapper(fn, func: str, base: str, site: str, tracer: Tracer):
    """The traced stand-in for function ``func`` as seen from module ``site``;
    its counters and spans are named after the metric base ``base``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        c = tracer.counts
        c[base + ".calls"] += 1
        if func == "damped_newton":
            args = (
                _counting(args[0], tracer, base + ".residual_evals"),
                *args[1:],
            )
            if site in ("tcp", "eigen"):
                c[site + ".newton_starts"] += 1
        elif func == "pattern_search_min":
            args = (_counting(args[0], tracer, base + ".sweeps"), *args[1:])
            c[base + ".sweeps"] -= 1  # the first evaluation is the start point
            if site == "operators":
                c["operators.pattern_ascents"] += 1
        elif func == "contract_m1_batch":
            A, X = args[0], args[1]
            rows = len(X)
            c[base + ".rows"] += rows
            c["tensor.madds_computed"] += rows * A.n**A.m
        elif func == "minimize_nonneg_sphere" and len(args) >= 3:
            n, cfg = args[1], args[2]
            G = cfg.grid_for(n)
            if G >= 2 and n > 1:
                c["optimize.grid_points"] += n * G ** (n - 1)
        elif func == "classify" and site == "bounds":
            c["bounds.gate_attempts"] += 1
        tracer.enter(base)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        dur = tracer.exit()
        if func == "damped_newton":
            if out[1]:
                c[base + ".converged"] += 1
            else:
                c[base + ".failed"] += 1
                c[base + ".failed_s"] += dur
        elif func == "_support_roots":
            c["tcp.roots_kept"] += len(out)
        elif func == "solve_enumeration":
            c["tcp.solutions"] += len(out)
        elif func in ("pareto_h_eigenvalues", "pareto_z_eigenvalues"):
            c["eigen.records"] += len(out)
        elif func == "verify_bounds":
            c["bounds.reports"] += len(out)
        if site == "bounds" and func in ("solve_enumeration", "solve_iterative"):
            tracer.observed.append((func, args[0], out))
        return out

    return wrapper


# (defining module, function, metric base name)
TARGETS = [
    ("tensor", "contract_m1", "tensor.contract_m1"),
    ("tensor", "jacobian_m1", "tensor.jacobian_m1"),
    ("tensor", "contract_m1_batch", "tensor.contract_m1_batch"),
    ("tensor", "principal_subtensor", "tensor.principal_subtensor"),
    ("optimize", "damped_newton", "optimize.damped_newton"),
    ("optimize", "minimize_nonneg_sphere", "optimize.minimize_nonneg_sphere"),
    ("optimize", "pattern_search_min", "optimize.pattern_search_min"),
    ("semipositive", "classify", "semipositive.classify"),
    ("semipositive", "beta", "semipositive.beta"),
    ("semipositive", "_violation_search", "semipositive.violation_searches"),
    ("semipositive", "is_copositive", "semipositive.is_copositive"),
    ("eigen", "pareto_h_eigenvalues", "eigen.pareto_h"),
    ("eigen", "pareto_z_eigenvalues", "eigen.pareto_z"),
    ("operators", "estimate_norm", "operators.estimate_norm"),
    ("tcp", "solve_enumeration", "tcp.solve_enumeration"),
    ("tcp", "_support_roots", "tcp.supports_visited"),
    ("tcp", "solve_iterative", "tcp.solve_iterative"),
    ("tcp", "verify_solution", "tcp.verify_solution"),
    ("bounds", "verify_bounds", "bounds.verify_bounds"),
    ("bounds", "lower_bounds", "bounds.lower_bounds"),
]


class Installed:
    """Context manager that rebinds every target in tcpkit for the duration."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "tcpkit" or name.startswith("tcpkit."))
        }
        for home, func, base in TARGETS:
            original = getattr(modules.get(f"tcpkit.{home}"), func, None)
            if original is None:
                self.absent.append(base)
                continue
            for modname, mod in modules.items():
                if getattr(mod, func, None) is original:
                    site = modname.rpartition(".")[2]
                    self._undo.append((mod, func, original))
                    setattr(mod, func, _make_wrapper(original, func, base, site, self.tracer))
        return self

    def __exit__(self, *exc) -> None:
        for mod, func, original in reversed(self._undo):
            setattr(mod, func, original)
        self._undo.clear()


# Metrics counted in a wrapper other than the one their name starts with:
# each is absent when the function of that wrapper is.
SOURCE = {
    "tensor.madds_computed": "tensor.contract_m1_batch",
    "optimize.grid_points": "optimize.minimize_nonneg_sphere",
    "eigen.newton_starts": "optimize.damped_newton",
    "eigen.records": "eigen.pareto_h",
    "operators.pattern_ascents": "optimize.pattern_search_min",
    "tcp.newton_starts": "optimize.damped_newton",
    "tcp.roots_kept": "tcp.supports_visited",
    "tcp.solutions": "tcp.solve_enumeration",
    "bounds.gate_attempts": "semipositive.classify",
    "bounds.reports": "bounds.verify_bounds",
}
# Metrics that are the call count of their wrapper.
CALL_COUNTS = ("semipositive.violation_searches", "tcp.supports_visited")


def layer_metrics(tracer: Tracer, absent: list[str]) -> dict[str, float]:
    """Per-layer metric values; metrics of an absent function are left out."""
    c = tracer.counts
    out: dict[str, float] = {}
    for name, _unit in LAYER_METRICS:
        source = SOURCE.get(name, name)
        if any(source == a or source.startswith(a + ".") for a in absent):
            continue
        if name.endswith(".self_s"):
            out[name] = float(tracer.self_s.get(name[: -len(".self_s")], 0.0))
        elif name.endswith(".failed_s"):
            out[name] = float(c.get(name, 0.0))
        elif name.endswith(".useful_ratio"):
            calls = c.get("optimize.damped_newton.calls", 0.0)
            out[name] = c.get("optimize.damped_newton.converged", 0.0) / calls if calls else 0.0
        elif name in CALL_COUNTS:
            out[name] = int(c.get(name + ".calls", 0))
        else:
            out[name] = int(c.get(name, 0))
    return out

"""Outside-in tracing of the package's layers for the traced pass.

``instrument`` rebinds, for the duration of one pass, the public names
each layer calls through (module attributes such as
``fraccaputo.pde.solve_banded``) and the callables of every problem
``manufactured_problem`` returns, to wrappers that time each call.  The
package's source is not touched and nothing stays bound after the pass.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict

from fraccaputo import cli, pde, property_suite, schemes, soe

SUITES = ("fir_coercivity", "fidr_coercivity", "mesh_sobolev", "summation_by_parts",
          "truncation_l1", "truncation_fidr", "gl_stability")
STEPPERS = ("fidr", "fir", "l1", "gl")


class Tracer:
    """Calls and inclusive seconds per span name, plus the time spent in
    spans that no other span encloses."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.top_s = 0.0
        self.kernels = []  # every kernel build_soe returned
        self.missing = set()  # spans whose name the package no longer has
        self._depth = 0

    def call(self, name: str, fn, *args, **kwargs):
        self._depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._depth -= 1
            self.calls[name] += 1
            self.seconds[name] += dt
            if self._depth == 0:
                self.top_s += dt

    def wrap(self, name: str, fn):
        return functools.wraps(fn)(lambda *a, **k: self.call(name, fn, *a, **k))


def _wrapped_problem(tr: Tracer, problem):
    source, exact = problem.source, problem.exact

    def traced_exact(x, t):
        # the t = 0 call is solve's set-up check of the initial data
        return tr.call("pde.exact" if t > 0.0 else "pde.exact_setup", exact, x, t)

    return dataclasses.replace(
        problem, source=tr.wrap("pde.source", source),
        exact=None if exact is None else traced_exact)


# (module, name, span): plain wrappers, one span per call
PLAIN = (
    [(pde, "solve", "pde.solve"), (pde, "solve_banded", "pde.banded"),
     (soe, "soe_max_error", "soe.max_error")]
    + [(soe, "gauss_legendre", "quadrature.gauss_legendre")]
    + [(m, "gauss_jacobi_power", "quadrature.gauss_jacobi_power") for m in (soe, schemes)]
    + [(m, "gl_coefficients", "schemes.gl_coefficients") for m in (pde, schemes, property_suite)]
    + [(schemes, f"{s}_step", f"schemes.{s}_step") for s in STEPPERS]
    + [(property_suite, f"{s}_step", f"schemes.{s}_step") for s in ("fidr", "fir", "l1")]
    + [(property_suite, f"{s}_suite", f"property_suite.{s}") for s in SUITES
       if not s.startswith("truncation")]
)


def _bindings(tr: Tracer) -> list:
    """(module, name, wrapper factory) for every name a traced pass rebinds."""
    out = [(m, name, functools.partial(tr.wrap, span)) for m, name, span in PLAIN]

    def build_soe(layer):
        def factory(fn):
            def build(*a, **k):
                kernel = tr.call(f"soe.build_soe.{layer}", fn, *a, **k)
                tr.kernels.append(kernel)
                return kernel
            return build
        return factory

    out += [(m, "build_soe", build_soe(layer))
            for m, layer in ((pde, "pde"), (soe, "soe"), (property_suite, "property_suite"))]
    out += [(m, "manufactured_problem", lambda fn: lambda *a, **k: _wrapped_problem(tr, fn(*a, **k)))
            for m in (pde, cli)]
    out.append((property_suite, "truncation_suite", lambda fn: lambda *a, **k: tr.call(
        f"property_suite.truncation_{k.get('variant', 'L1').lower()}", fn, *a, **k)))
    out.append((cli, "main", lambda fn: lambda argv: tr.call(
        f"cli.{argv[0].replace('-', '_')}", fn, argv)))
    return out


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Rebind every traced name for the duration of the block."""
    saved = []
    try:
        for module, name, factory in _bindings(tr):
            if not hasattr(module, name):
                tr.missing.add(f"{module.__name__}.{name}")
                continue
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, factory(fn))
        yield tr
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def history_bytes(report) -> int:
    """Bytes of float64 state the interior and boundary evaluators hold,
    computed from N, P and n (not measured)."""
    n = report.tgrid.n_steps

    def held(points, n_modes):
        if report.scheme in ("fir", "fidr"):
            return n_modes * points + 3 * points + 3 * n_modes  # modes, u0/u_prev/u_prev2, coefficients
        extra = points if report.scheme == "gl" else 0  # gl keeps u0
        return (n + 1) * points + (n + 1) + extra  # field history, weights

    return 8 * (held(report.sgrid.n_cells + 1, report.n_modes_interior)
                + held(2, report.n_modes_boundary))


def layer_metrics(tr: Tracer, log, certified: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    s, c = tr.seconds, tr.calls
    steps = sum(r.tgrid.n_steps for _, r in log.solves) or 1
    loop = sum(r.wall_time for _, r in log.solves)
    n_solves = len(log.solves) or 1

    def per_call(name, scale):
        return s[name] / c[name] * scale if c[name] else 0.0

    builds = [k for k in s if k.startswith("soe.build_soe.")]
    m = {
        "pde.step_self_us": ((loop - s["pde.banded"] - s["pde.source"] - s["pde.exact"])
                             / steps * 1e6, "us"),
        "pde.banded_us": (s["pde.banded"] / steps * 1e6, "us"),
        "pde.banded_calls": (c["pde.banded"], "count"),
        "pde.source_us": (s["pde.source"] / steps * 1e6, "us"),
        "pde.exact_us": (s["pde.exact"] / steps * 1e6, "us"),
        "pde.setup_ms": ((sum(t - r.wall_time for t, r in log.solves) - s["soe.build_soe.pde"])
                         / n_solves * 1e3, "ms"),
        "pde.history_bytes": (max((history_bytes(r) for _, r in log.solves), default=0), "B"),
        "soe.build_soe_ms": (sum(s[k] for k in builds) / max(1, sum(c[k] for k in builds)) * 1e3,
                             "ms"),
        "soe.build_soe_calls": (sum(c[k] for k in builds), "count"),
        "soe.max_error_ms": (per_call("soe.max_error", 1e3), "ms"),
        "soe.max_error_calls": (c["soe.max_error"], "count"),
        "soe.certified": (certified, "count"),
        "soe.kernels": (len(tr.kernels), "count"),
    }
    for q in ("gauss_legendre", "gauss_jacobi_power"):
        m[f"quadrature.{q}_us"] = (per_call(f"quadrature.{q}", 1e6), "us")
        m[f"quadrature.{q}_calls"] = (c[f"quadrature.{q}"], "count")
    for st in STEPPERS:
        m[f"schemes.{st}_step_us"] = (per_call(f"schemes.{st}_step", 1e6), "us")
        m[f"schemes.{st}_step_calls"] = (c[f"schemes.{st}_step"], "count")
    m["schemes.gl_coefficients_calls"] = (c["schemes.gl_coefficients"], "count")
    for suite in SUITES:
        m[f"property_suite.{suite}_s"] = (s[f"property_suite.{suite}"], "s")
    m["property_suite.checked"] = (log.counters.get("property_suite.checked", 0), "count")
    m["cli.convergence_s"] = (s["cli.convergence"], "s")
    m["cli.property_suite_s"] = (s["cli.property_suite"], "s")
    m["cli.failed_rows"] = (log.counters.get("cli.failed_rows", 0), "count")
    m["trace.unattributed_frac"] = ((wall_s - tr.top_s) / wall_s, "ratio")
    if "fraccaputo.pde.solve_banded" in tr.missing:
        del m["pde.banded_us"], m["pde.banded_calls"]
    return m

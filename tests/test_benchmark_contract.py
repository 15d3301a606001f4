"""The benchmark still finds every layer it measures.

perfbench's traced pass rebinds module attributes of the package
(``pde.solve_banded``, ``cli.solve``, ``cli.manufactured_problem`` ...)
from outside, and drops a declared metric when the attribute behind it is
gone.  This runs one traced ``small-calls`` pass through perfbench's own
code, unchanged, so a rename that would leave a benchmark run without
its declared metrics fails here first.
"""
import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# attributes the traced pass still looks for but the package no longer has
STALE = {
    "fraccaputo.pde.gl_coefficients",
    "fraccaputo.property_suite.fir_step",
    "fraccaputo.property_suite.fidr_step",
    "fraccaputo.property_suite.l1_step",
    "fraccaputo.property_suite.gl_coefficients",
}


def test_traced_small_calls_pass_reports_every_declared_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    import workloads

    log, tracer = workloads.PassLog(), spans.Tracer()
    with spans.instrument(tracer):
        t0 = time.perf_counter()
        workloads.run_pass(workloads.WORKLOADS["small-calls"](1), log)
        wall_s = time.perf_counter() - t0
    assert log.failed == 0, log.errors
    assert tracer.missing <= STALE
    metrics = spans.layer_metrics(tracer, log, len(tracer.kernels), wall_s)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # run.py adds the overhead fraction from untraced passes
    assert declared - {"trace.overhead_frac"} <= set(metrics)

"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload manufactured-fast --seed 1 --seconds 55 --trace 0

Run it from the repository root: the package is imported from ./src.  The
run repeats passes over the workload until the next pass would end after
``--seconds``; each time it reports is the sum over the workload's
operations of the operation's median over passes.  With ``--trace 0``
every pass is untraced and the result carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and the result
carries the per-layer metrics of the traced passes, with the tracing
overhead measured against the untraced ones.  Each metric is printed on
its own line with its unit, followed by a ``detail`` JSON line (machine
block, per-pass values) and, last, the result as one JSON object.
BLAS runs single-threaded and the convergence sweep in one process.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time

from spec import END_TO_END_UNITS, PER_LAYER_UNITS, PINNED_ENV, WORKLOAD_NAMES

LABELS = {
    "peak_rss_mb": "measured: ru_maxrss of this process",
    "pde.history_bytes": "computed from N, P and n",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one fraccaputo benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def one_pass(ops, traced: bool) -> dict:
    """Time one pass; returns its per-operation timings, extras and, when
    traced, its per-layer metrics."""
    # these import fraccaputo, which main() puts on the path first
    import spans
    import workloads
    from fraccaputo import soe

    log = workloads.PassLog()
    if traced:
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            timings = workloads.run_pass(ops, log)
    else:
        timings = workloads.run_pass(ops, log)

    loops = {}
    for _, r in log.solves:
        key = f"pde.loop_s.{r.scheme}{r.n_modes_interior or ''}"
        loops[key] = loops.get(key, 0.0) + r.wall_time
    extras = {k: (v, "s") for k, v in loops.items()}
    if "pde.loop_s.fir25" in loops and "pde.loop_s.fidr25" in loops:
        extras["pde.fir_over_fidr"] = (loops["pde.loop_s.fir25"] / loops["pde.loop_s.fidr25"], "ratio")
    if log.samples:
        extras["stream_us"] = (log.stream_s / log.samples * 1e6, "us")
    out = {
        "timings": timings,
        "end_to_end": end_to_end([timings]),
        "extras": extras,
        "ops": log.ops,
        "failed": log.failed,
        "errors": log.errors,
    }
    if traced:
        certified = sum(soe.soe_max_error(k, workloads.CERT_SAMPLES)[0] <= k.bound
                        for k in tracer.kernels)
        out["layers"] = spans.layer_metrics(tracer, log, certified, out["end_to_end"]["wall_s"])
    return out


def end_to_end(passes: list) -> dict:
    """End-to-end values from the per-operation timings of several passes:
    every time is the sum over operations of the operation's median, so a
    stall spoils one operation's sample rather than a whole pass."""
    def total(key):
        return sum(statistics.median(t[key] for t in samples) for samples in zip(*passes))

    return {"wall_s": total("wall_s"), "cpu_s": total("cpu_s"),
            "step_us": total("loop_s") / total("steps") * 1e6, "setup_s": total("setup_s")}


def _median_of(passes, section) -> dict:
    """Median over passes of every (value, unit) in ``section``."""
    names = {k: u for p in passes for k, (_, u) in p[section].items()}
    return {k: (statistics.median(p[section][k][0] for p in passes if k in p[section]), u)
            for k, u in names.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "fraccaputo", "__init__.py")):
        print("perfbench: ./src/fraccaputo not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in PINNED_ENV:  # before numpy loads OpenBLAS
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import fraccaputo
    if not os.path.abspath(fraccaputo.__file__).startswith(src + os.sep):
        print(f"perfbench: imported fraccaputo from {fraccaputo.__file__}, not ./src",
              file=sys.stderr)
        return 2
    import machine
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    kinds = itertools.cycle((False, True)) if args.trace else itertools.repeat(False)
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        is_traced = next(kinds)
        (traced if is_traced else plain).append(one_pass(ops, is_traced))
        longest = max(longest, time.perf_counter() - t0)
        have_all = plain and (traced or not args.trace)
        if have_all and time.perf_counter() - start + longest > args.seconds:
            break
    passes = plain + traced
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    e2e = {k: (v, END_TO_END_UNITS[k])
           for k, v in end_to_end([p["timings"] for p in plain]).items()}
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    extras = _median_of(plain, "extras")
    shown = dict(e2e)
    if args.trace:
        layers = _median_of(traced, "layers")
        traced_wall = end_to_end([p["timings"] for p in traced])["wall_s"]
        layers["trace.overhead_frac"] = ((traced_wall - e2e["wall_s"][0]) / e2e["wall_s"][0], "ratio")
        shown.update(layers)
    shown.update(extras)
    # the result carries what BENCHMARK.json declares, in its units; a
    # per-layer name the package no longer has stays missing
    declared = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {k: shown[k] for k in declared if k in shown}
    for name, (_, unit) in result.items():
        if unit != declared[name]:
            print(f"perfbench: {name} is measured in {unit}, BENCHMARK.json says {declared[name]}",
                  file=sys.stderr)
            return 2
    shown["ops"] = (attempted, "count")
    shown["failed_ops"] = (failed, "count")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    for name, (value, unit) in shown.items():
        label = f"  [{LABELS[name]}]" if name in LABELS else ""
        print(f"{name:38s} {value:>14.6g} {unit}{label}")
    for p in passes:
        for message in p["errors"]:
            print(f"perfbench: {message}", file=sys.stderr)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine.machine_block(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "passes": {"untraced": [p["end_to_end"] for p in plain],
                   "traced": [p["end_to_end"] for p in traced]},
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

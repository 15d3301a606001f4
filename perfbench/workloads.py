"""The benchmark workloads and the correctness gate of each operation.

A workload is a list of operations.  ``run_pass`` times one pass over
them and afterwards, outside the timed region, checks every result.
Every call goes through a module attribute of the package (``pde.solve``,
``schemes.fidr_step``, ``cli.main`` ...), so that the traced pass can
rebind those names from outside; the untraced pass keeps one hook only,
a clock around each ``solve`` call the CLI makes, so that set-up and
loop time are measured the same way whether the benchmark or the CLI
calls the solver.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference
from fraccaputo import cli, pde, schemes, soe
from spec import WORKLOAD_NAMES

ALPHA = 0.5
LADDER = cli.MODE_TABLE  # N -> (a, b, n1, n2)

# Relative tolerances of the gate.  Fields are compared at 1e-12, the
# "results equal" target of later speed work.  A related error is a small
# difference of large fields (fidr N=40: 3.7e-6 of a field of size 45), so
# a 1e-15 change of the field order moves it by about 1e-10; 1e-9 is the
# tightest tolerance that such reorderings pass.  The convergence CSV
# prints six significant digits.
RTOL_FIELD = 1e-12
RTOL_ERROR = 1e-9
RTOL_CSV = 1e-5
RTOL_STREAM = 1e-9

CERT_SAMPLES = 2000
# (beta, a, b, n1, n2, delta, horizon): the kernel certification grid of the
# acceptance suite
CERT_GRID = [
    (beta, a, b, n1, n2, delta, horizon)
    for beta in (0.1, 0.5, 0.9, 1.1, 1.5, 1.9)
    for (a, b, n1, n2, delta, horizon) in (
        (3, 10, 4, 3, 1e-2, 1.0),
        (0, 12, 6, 8, 1e-3, 1.0),
        (2, 12, 5, 6, 5e-3, 2.0),
    )
] + [(0.1, -2, 8, 4, 4, 5e-2, 1.0), (1.9, -2, 8, 4, 4, 5e-2, 1.0)]


def expected() -> dict:
    """The seed commit's results the gate compares against."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as fh:
        return json.load(fh)


@dataclass
class PassLog:
    """What one pass measured outside the tracer."""

    solves: list = field(default_factory=list)  # (seconds in the solve() call, SolveReport)
    direct_setup_s: float = 0.0  # kernel and weight builds the workload makes itself
    stream_s: float = 0.0
    samples: int = 0
    counters: dict = field(default_factory=dict)  # counts the checks read off results
    ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        self.errors.append(message)


def timed_solve(log: PassLog, *args, **kwargs):
    """``pde.solve``, with the seconds spent in the call logged next to its report."""
    t0 = time.perf_counter()
    report = pde.solve(*args, **kwargs)
    log.solves.append((time.perf_counter() - t0, report))
    return report


@contextlib.contextmanager
def cli_solve_clock(log: PassLog):
    """Route the CLI's solve calls through ``timed_solve``."""
    original = cli.solve
    cli.solve = lambda *a, **k: timed_solve(log, *a, **k)
    try:
        yield
    finally:
        cli.solve = original


@dataclass
class Op:
    name: str
    count: int  # operations it stands for in ``attempted``
    run: Callable[[PassLog], object]
    check: Callable[[object, PassLog], int]  # number of failed operations


def run_pass(ops: list, log: PassLog) -> list:
    """Run every operation, then check them.  Returns per operation its
    wall and CPU seconds, the loop seconds and steps of the solves it made,
    and its set-up seconds."""
    results, timings = [], []
    with cli_solve_clock(log):
        for op in ops:
            n_solves, direct_setup = len(log.solves), log.direct_setup_s
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                results.append((op.run(log), None))
            except Exception:  # an operation that raises is a failed operation
                results.append((None, traceback.format_exc(limit=3)))
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            solves = log.solves[n_solves:]
            timings.append({
                "wall_s": wall,
                "cpu_s": cpu,
                "loop_s": sum(r.wall_time for _, r in solves),
                "steps": sum(r.tgrid.n_steps for _, r in solves),
                "setup_s": (sum(t - r.wall_time for t, r in solves)
                            + log.direct_setup_s - direct_setup),
            })
    for op, (out, exc) in zip(ops, results):
        log.ops += op.count
        if exc is not None:
            log.fail(op.count, f"{op.name} raised: {exc}")
            continue
        try:
            bad = op.check(out, log)
        except Exception:  # a result the check cannot read is a failed result
            log.fail(op.count, f"{op.name} check raised: {traceback.format_exc(limit=3)}")
            continue
        if bad:
            log.fail(bad, f"{op.name}: {bad} of {op.count} failed the check")
    return timings


def _close(value, want, rtol) -> bool:
    return value is not None and math.isfinite(value) and abs(value - want) <= rtol * abs(want)


# ---------------------------------------------------------------------------
# manufactured-fast: the fixed problem of the paper's tables, so the seed
# selects nothing


def _solve_op(scheme: str, n_modes: int) -> Op:
    key = f"{scheme}{n_modes}"
    want = expected()["manufactured"][key]
    grid = pde.SpaceGrid.from_spacing(0.0, math.pi, 1e-3)

    def run(log):
        params = soe.SoEParams.from_ladder(*LADDER[n_modes])
        return timed_solve(log, pde.manufactured_problem(ALPHA), schemes.TimeGrid(1e-3, 1000),
                           grid, scheme, params)

    def check(report, log):
        u = report.snapshots[-1][1]
        ok = (_close(float(np.max(np.abs(u))), want["max_abs"], RTOL_FIELD)
              and _close(float(np.sum(u)), want["sum"], RTOL_FIELD)
              and _close(report.related_error, want["related_error"], RTOL_ERROR))
        return 0 if ok else 1

    return Op(f"manufactured:{key}", 1, run, check)


def manufactured_fast(seed: int) -> list:
    return [_solve_op(s, n) for s, n in (("fidr", 25), ("fir", 25), ("fidr", 40), ("fir", 40))]


# ---------------------------------------------------------------------------
# small-calls: scalar streams, two CLI commands, kernel certification

STREAM_DT = 1e-3
FAST_SAMPLES = 5000
DIRECT_SAMPLES = 2000


def _stream_op(name: str, n: int, setup) -> Op:
    """Feed n samples through one scalar stepper.  ``setup()`` builds the
    kernel or weights and the state, and returns ``(step, reference_values)``:
    ``step(i)`` consumes sample i and returns the derivative value, and
    ``reference_values()`` computes the values to compare against, outside
    the timed run."""
    def run(log):
        t0 = time.perf_counter()
        step, reference_values = setup()
        t1 = time.perf_counter()
        values = np.array([step(i) for i in range(1, n + 1)])
        log.direct_setup_s += t1 - t0
        log.stream_s += time.perf_counter() - t1
        log.samples += n
        return values, reference_values

    return Op(f"stream:{name}", 1, run, _check_stream)


def _stream_ops(path: np.ndarray) -> list:
    def fast(scheme):
        def setup():
            beta = ALPHA + 1.0 if scheme == "fir" else ALPHA
            kernel = soe.build_soe(beta, soe.SoEParams.from_ladder(*LADDER[25]),
                                   STREAM_DT, FAST_SAMPLES * STREAM_DT)
            state = [schemes.new_history(scheme, ALPHA, STREAM_DT, path[0], n_modes=kernel.n_modes)]

            def step(i):
                value, state[0] = getattr(schemes, f"{scheme}_step")(state[0], kernel, path[i])
                return value

            return step, lambda: reference.fast_values(
                scheme, path[: FAST_SAMPLES + 1], STREAM_DT, ALPHA, kernel.nodes, kernel.weights)

        return _stream_op(scheme, FAST_SAMPLES, setup)

    u = path[: DIRECT_SAMPLES + 1]

    def l1_setup():
        weights = schemes.l1_weights(ALPHA, DIRECT_SAMPLES)
        return (lambda i: schemes.l1_step(weights, u[: i + 1], STREAM_DT),
                lambda: reference.l1_values(u, STREAM_DT, ALPHA))

    def gl_setup():
        state = [schemes.new_history("gl", ALPHA, STREAM_DT, u[0])]

        def step(i):
            value, state[0] = schemes.gl_step(state[0], u[i], ALPHA)
            return value

        return step, lambda: reference.gl_values(u, STREAM_DT, ALPHA)

    return [fast("fidr"), fast("fir"), _stream_op("l1", DIRECT_SAMPLES, l1_setup),
            _stream_op("gl", DIRECT_SAMPLES, gl_setup)]


def _check_stream(out, log) -> int:
    values, reference_values = out
    ref = reference_values()
    scale = max(1.0, float(np.max(np.abs(ref))))
    return 0 if np.all(np.abs(values - ref) <= RTOL_STREAM * scale) else 1


def _cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _convergence_op() -> Op:
    rows = expected()["convergence"]

    def run(log):
        return _cli(["convergence", "--alpha", str(ALPHA), "--levels", "4", "--jobs", "1"])

    def check(out, log):
        code, text = out
        got = {}
        not_ok = 0
        for line in text.splitlines()[2:]:  # config comment, header
            fields = line.split(",", 4)  # a failure status may hold commas
            if len(fields) < 5:
                not_ok += 1
                continue
            scheme, n_modes, dt, err, status = fields
            got[(scheme, n_modes, dt)] = (err, status)
            not_ok += status != "ok"
        log.counters["cli.failed_rows"] = not_ok
        if code != 0:
            return len(rows)
        bad = 0
        for scheme, n_modes, dt, err in rows:
            have = got.get((scheme, str(n_modes), dt))
            if have is None or have[1] != "ok" or not _close(float(have[0] or "nan"), float(err), RTOL_CSV):
                bad += 1
        return bad

    return Op("cli:convergence", len(rows), run, check)


def _property_op(seed: int) -> Op:
    want = expected()["property_checked"]

    def run(log):
        return _cli(["property-suite", "--quick", "--seed", str(seed)])

    def check(out, log):
        code, text = out
        ledger = json.loads(text)
        checked = {s["name"]: s["checked"] for s in ledger["suites"]}
        log.counters["property_suite.checked"] = sum(checked.values())
        return 0 if code == 0 and ledger["all_pass"] and checked == want else 1

    return Op("cli:property-suite", 1, run, check)


def _certify_op(beta, a, b, n1, n2, delta, horizon) -> Op:
    def run(log):
        t0 = time.perf_counter()
        kernel = soe.build_soe(beta, soe.SoEParams.from_ladder(a, b, n1, n2), delta, horizon)
        log.direct_setup_s += time.perf_counter() - t0
        return soe.soe_max_error(kernel, CERT_SAMPLES)[0], kernel.bound

    def check(out, log):
        empirical, bound = out
        return 0 if empirical <= bound else 1

    return Op(f"certify:{beta}:{a},{b},{n1},{n2}:{delta}:{horizon}", 1, run, check)


def sample_path(seed: int) -> np.ndarray:
    """Random walk from u0 = 0 with N(0, 0.05**2) increments."""
    rng = np.random.default_rng(seed)
    return np.concatenate(([0.0], np.cumsum(rng.normal(0.0, 0.05, FAST_SAMPLES))))


def small_calls(seed: int) -> list:
    return (_stream_ops(sample_path(seed)) + [_convergence_op(), _property_op(seed)]
            + [_certify_op(*cfg) for cfg in CERT_GRID])


# the workload named w-x is the function w_x
WORKLOADS = {name: globals()[name.replace("-", "_")] for name in WORKLOAD_NAMES}

"""Benchmark command line: tables, error curves, convergence sweeps.

Subcommands: tail-table, soe-error, convergence, solve, property-suite.
Curves and tables go to CSV (header row plus a leading ``#`` comment line
recording the full configuration, 6 significant digits, values below
1e-15 printed as 0 where noted); single runs and property ledgers go to
JSON.  ``SETTINGS`` states each setting's flag, default and type once;
``COMMANDS`` lists the settings each subcommand takes.  Exit codes: 0 ok,
2 bad configuration, 3 property failure, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .pde import SpaceGrid, manufactured_problem, nonlinear_problem, solve
from .property_suite import run_property_suite
from .quadrature import ConstructionError
from .schemes import SCHEMES, TimeGrid, kernel_order
from .soe import SoEParams, build_soe, soe_max_error, tail_integral

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PROPERTY = 3
EXIT_NUMERICAL = 4

#: mode-count shorthands: ladder (a, b, n1, n2) per target N
MODE_TABLE = {
    9: (3, 10, 2, 1),
    25: (3, 10, 4, 3),
    40: (3, 15, 4, 3),
}

#: every setting: its default, whose type is its flag's type, and help text.
#: The flag is --key with - for _.
SETTINGS = {
    "alpha": (0.1, "fractional order, in (0, 1)"),
    "dt": (1e-1, "time step; the largest step of a convergence sweep"),
    "h": (1e-3, "grid spacing"),
    "T": (1.0, "final time"),
    "scheme": ("fidr", "time rule"),
    "problem": ("manufactured", "problem to solve"),
    "x_lo": (-1.0, "left end of the nonlinear problem's domain"),
    "x_hi": (1.0, "right end of the nonlinear problem's domain"),
    "soe_a": (3, "ladder start exponent a"),
    "soe_b": (10, "ladder top exponent b"),
    "soe_n1": (4, "low-band rule nodes"),
    "soe_n2": (3, "Legendre nodes per interval"),
    "samples": (200, "sample times per curve, at least 2"),
    "levels": (4, "number of step sizes, halving from dt, at least 1"),
    "seed": (42, "random seed"),
}

#: the settings that take one of a fixed set of values, as a flag or a config value
CHOICES = {"scheme": SCHEMES, "problem": ("manufactured", "nonlinear")}

#: add_argument keywords per flag: every setting's, with default None so that
#: main sees which were given, then the flags that no config key sets
_FLAGS = {key: dict(type=type(default), choices=CHOICES.get(key),
                    help=f"{text} (default: {default})")
          for key, (default, text) in SETTINGS.items()}
_FLAGS.update(
    out=dict(help="output path (default: stdout)"),
    config=dict(help="JSON file of settings"),
    modes=dict(type=int, help=f"mode-count preset, one of {sorted(MODE_TABLE)}"),
    jobs=dict(type=int, default=1, help="parallel runs for sweeps, at least 1"),
    snapshots=dict(action="store_true", help="embed field snapshots"),
    quick=dict(action="store_true", help="thin the dense scans"),
)


def _fmt(v: float) -> str:
    return f"{v:.5e}"


def _fmt_zero(v: float) -> str:
    return "0" if abs(v) < 1e-15 else _fmt(v)


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _csv(config: dict, header: list, rows: list) -> str:
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _soe_params(args) -> SoEParams:
    if args.modes is None:
        return SoEParams(args.soe_a, args.soe_b, args.soe_n1, args.soe_n2)
    if args.modes not in MODE_TABLE:
        raise ValueError(f"no ladder preset for N={args.modes}; pass --soe-a/b/n1/n2 instead")
    return SoEParams(*MODE_TABLE[args.modes])


def _run(problem, scheme: str, params, dt: float, h: float, T: float):
    """One solve of ``problem`` up to time T with step dt and spacing about h."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = T / dt
    if not math.isfinite(steps):
        raise ValueError(f"T / dt = {steps} is not a finite step count")
    return solve(problem, TimeGrid(dt, round(steps)),
                 SpaceGrid.from_spacing(problem.x_lo, problem.x_hi, h), scheme, params)


# ---------------------------------------------------------------------------
# subcommands

def cmd_tail_table(args) -> int:
    """Dropped-tail magnitudes on the (t, p) grid t=2^-5..2^-10, p=2^5..2^20."""
    beta = 1.1
    t_exps = range(-5, -11, -1)
    p_exps = (5, 10, 15, 20)
    config = {"command": "tail-table", "beta": beta}
    header = ["t"] + [f"p=2^{e}" for e in p_exps]
    rows = []
    for te in t_exps:
        t = 2.0 ** te
        cells = [_fmt_zero(tail_integral(beta, 2.0 ** pe, t)) for pe in p_exps]
        rows.append([f"2^{te}"] + cells)
    _write_text(args.out, _csv(config, header, rows))
    return EXIT_OK


def cmd_soe_error(args) -> int:
    """Kernel-compression error curves of both fast schemes on [1e-3, 1]."""
    alpha, n_samples = args.alpha, args.samples
    params = _soe_params(args)
    delta, horizon = 1e-3, 1.0
    # both curves are (t, error) rows on the same times; fir's is scaled by alpha
    fir, fidr = (soe_max_error(build_soe(kernel_order(s, alpha), params, delta, horizon),
                               n_samples)[1] for s in ("fir", "fidr"))
    config = {"command": "soe-error", "alpha": alpha, "n_modes": params.n_modes,
              "a": params.a, "b": params.b, "n1": params.n1, "n2": params.n2,
              "delta": delta, "horizon": horizon, "samples": n_samples}
    rows = [[_fmt(t), _fmt(alpha * fi), _fmt(di)] for (t, fi), (_, di) in zip(fir, fidr)]
    _write_text(args.out, _csv(config, ["t", "fir_err_alpha", "fidr_err"], rows))
    return EXIT_OK


def _one_convergence_run(task) -> tuple:
    """(related error, status) of one manufactured run; a failure is a row."""
    scheme, n_modes, dt, alpha, h, T = task
    try:
        params = SoEParams(*MODE_TABLE[n_modes])
        return _run(manufactured_problem(alpha), scheme, params, dt, h, T).related_error, "ok"
    except Exception as exc:
        return math.nan, f"failed: {exc}"


def cmd_convergence(args) -> int:
    """Related error versus dt for the fast schemes (N in {9, 25}) and the
    binomial baseline, halving dt ``levels`` times from the starting value."""
    if args.levels < 1 or args.jobs < 1:
        raise ValueError(f"levels and jobs must be at least 1, got {args.levels}, {args.jobs}")
    alpha, h, T = args.alpha, args.h, args.T
    dts = [args.dt * 0.5 ** k for k in range(args.levels)]
    # one row per (scheme, mode count, dt); the storage-hungry baseline
    # ignores the mode count, so it runs once per dt and fills both rows
    runs = [(scheme, n_modes, dt, alpha, h, T) for scheme in ("fidr", "fir", "gl")
            for n_modes in (9, 25) for dt in dts if scheme != "gl" or n_modes == 9]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_one_convergence_run, runs))
    else:
        results = list(map(_one_convergence_run, runs))
    config = {"command": "convergence", "alpha": alpha, "h": h, "T": T,
              "dts": dts, "schemes": ["fidr", "fir", "gl"], "mode_counts": [9, 25]}
    rows = [[scheme, str(n_modes), _fmt(dt),
             "" if math.isnan(err) else _fmt(err), status]
            for (scheme, n_modes, dt, *_), (err, status) in zip(runs, results)]
    rows += [["gl", "25"] + row[2:] for row in rows[-len(dts):]]
    _write_text(args.out, _csv(config, ["scheme", "n_modes", "dt", "related_error", "status"], rows))
    return EXIT_OK


def cmd_solve(args) -> int:
    """One full run, reported as JSON."""
    if args.problem == "manufactured":
        problem = manufactured_problem(args.alpha)
    else:
        problem = nonlinear_problem(args.alpha, args.x_lo, args.x_hi)
    # the kernel flags are checked for every scheme; l1 and gl ignore them
    params = _soe_params(args)
    report = _run(problem, args.scheme, params, args.dt, args.h, args.T)
    payload = {"command": "solve", "alpha": args.alpha, "problem": args.problem}
    payload.update(report.to_dict(include_snapshots=args.snapshots))
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_property_suite(args) -> int:
    """Seeded inequality suites; nonzero exit when any suite fails."""
    ledger = run_property_suite(args.seed, quick=args.quick)
    _write_text(args.out, json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if ledger["all_pass"] else EXIT_PROPERTY


# ---------------------------------------------------------------------------

_SOE = ("soe_a", "soe_b", "soe_n1", "soe_n2", "modes")

#: subcommand -> (handler, help, the settings and flags it takes besides --out, --config)
COMMANDS = {
    "tail-table": (cmd_tail_table, "dropped-tail magnitude table", ()),
    "soe-error": (cmd_soe_error, "kernel-compression error curves", ("alpha", "samples", *_SOE)),
    "convergence": (cmd_convergence, "related error versus dt sweep",
                    ("alpha", "dt", "h", "T", "levels", "jobs")),
    "solve": (cmd_solve, "single run, JSON report",
              ("alpha", "dt", "h", "T", "scheme", "problem", "x_lo", "x_hi", "snapshots", *_SOE)),
    "property-suite": (cmd_property_suite, "seeded inequality checks", ("seed", "quick")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraccaputo", description="Fast fractional-derivative evaluation benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key in ("out", "config", *keys):
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Each setting it takes comes from its flag, else
    from the --config file's key, parsed as the flag's text, else from
    SETTINGS.  Bad input, a grid too large for memory included, exits 2."""
    args = build_parser().parse_args(argv)
    handler, _, keys = COMMANDS[args.command]
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("the config file must hold one JSON object")
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
            return EXIT_VALIDATION
    try:
        for key in keys:
            if key in SETTINGS and getattr(args, key) is None:
                default = SETTINGS[key][0]
                parse, text = type(default), str(config.get(key, default))
                try:
                    setattr(args, key, parse(text))
                except ValueError:
                    raise ValueError(f"{key} {text!r} is not of type {parse.__name__}") from None
                if key in CHOICES and text not in CHOICES[key]:  # choices are strings
                    raise ValueError(f"{key} {text!r} is not one of {CHOICES[key]}")
        return handler(args)
    except (ValueError, MemoryError) as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}), file=sys.stderr)
        return EXIT_VALIDATION
    except (ConstructionError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": "numerical", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

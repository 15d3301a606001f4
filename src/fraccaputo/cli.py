"""Benchmark command line: tables, error curves, convergence sweeps.

Subcommands: tail-table, soe-error, convergence, solve, property-suite.
Curves and tables go to CSV (header row plus a leading ``#`` comment line
recording the full configuration, 6 significant digits, values below
1e-15 printed as 0 where noted); single runs and property ledgers go to
JSON.  Exit codes: 0 ok, 2 bad configuration, 3 property failure,
4 numerical failure.
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

DEFAULTS = {
    "alpha": 0.1,
    "dt": 1e-1,
    "h": 1e-3,
    "T": 1.0,
    "scheme": "fidr",
    "soe_a": 3,
    "soe_b": 10,
    "soe_n1": 4,
    "soe_n2": 3,
    "problem": "manufactured",
    "seed": 42,
    "levels": 4,
    "samples": 200,
    "x_lo": -1.0,
    "x_hi": 1.0,
}

#: the settings whose flags take one of a fixed set of values; a value
#: from the config file must be one of them too
CHOICES = {
    "scheme": SCHEMES,
    "problem": ("manufactured", "nonlinear"),
}


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

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--config", default=None, help="JSON file with defaults")


def _add_soe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--soe-a", type=int, default=None, help="ladder start exponent a")
    p.add_argument("--soe-b", type=int, default=None, help="ladder top exponent b")
    p.add_argument("--soe-n1", type=int, default=None, help="low-band rule nodes")
    p.add_argument("--soe-n2", type=int, default=None, help="Legendre nodes per interval")
    p.add_argument("--modes", type=int, default=None,
                   help=f"mode-count preset, one of {sorted(MODE_TABLE)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraccaputo",
        description="Fast fractional-derivative evaluation benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tail-table", help="dropped-tail magnitude table")
    _add_common(p)
    p.set_defaults(func=cmd_tail_table)

    p = sub.add_parser("soe-error", help="kernel-compression error curves")
    _add_common(p)
    _add_soe_flags(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(func=cmd_soe_error)

    p = sub.add_parser("convergence", help="related error versus dt sweep")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--dt", type=float, default=None, help="largest step of the ladder")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--levels", type=int, default=None, help="number of halvings")
    p.add_argument("--jobs", type=int, default=1, help="parallel runs for sweeps")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("solve", help="single run, JSON report")
    _add_common(p)
    _add_soe_flags(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--scheme", choices=CHOICES["scheme"], default=None)
    p.add_argument("--problem", choices=CHOICES["problem"], default=None)
    p.add_argument("--x-lo", type=float, default=None)
    p.add_argument("--x-hi", type=float, default=None)
    p.add_argument("--snapshots", action="store_true", help="embed field snapshots")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("property-suite", help="seeded inequality checks")
    _add_common(p)
    p.add_argument("--quick", action="store_true", help="thin the dense scans")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_property_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        # a setting the subcommand takes and no flag gave comes from the
        # config file, else from DEFAULTS, as the default's type, and obeys
        # the flag's choices
        for key, default in DEFAULTS.items():
            if getattr(args, key, default) is None:
                value = type(default)(config.get(key, default))
                if key in CHOICES and value not in CHOICES[key]:
                    raise ValueError(f"{key} {value!r} is not one of {CHOICES[key]}")
                setattr(args, key, value)
        return args.func(args)
    except ValueError as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}), file=sys.stderr)
        return EXIT_VALIDATION
    except (ConstructionError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": "numerical", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

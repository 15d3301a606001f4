import json
import re
import time

import numpy as np
import pytest

from fraccaputo import cli
from fraccaputo.cli import main
from fraccaputo.pde import DiffusionProblem
from fraccaputo.quadrature import ConstructionError


def run_cli(tmp_path, *argv, name="out"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return config, header, rows


def test_tail_table_values_and_speed(tmp_path):
    t0 = time.perf_counter()
    code, text = run_cli(tmp_path, "tail-table")
    assert code == 0
    assert time.perf_counter() - t0 < 1.0
    config, header, rows = parse_csv(text)
    assert header == ["t", "p=2^5", "p=2^10", "p=2^15", "p=2^20"]
    assert len(rows) == 6
    table = {r[0]: r[1:] for r in rows}
    assert abs(float(table["2^-7"][1]) - 9.129e-02) < 5e-4 * 9.129e-02
    assert abs(float(table["2^-8"][1]) - 1.006e+01) < 5e-4 * 1.006e+01
    assert table["2^-5"][3] == "0"          # below 1e-15 prints as bare zero
    assert table["2^-5"][2] == "0"


def test_soe_error_curve_ordering(tmp_path):
    code, text = run_cli(tmp_path, "soe-error", "--alpha", "0.1", "--samples", "120")
    assert code == 0
    config, header, rows = parse_csv(text)
    assert header == ["t", "fir_err_alpha", "fidr_err"]
    assert config["n_modes"] == 25
    t = np.array([float(r[0]) for r in rows])
    fir = np.array([float(r[1]) for r in rows])
    fidr = np.array([float(r[2]) for r in rows])
    assert np.all(fir >= 0.0) and np.all(fidr >= 0.0)
    near = np.argmin(np.abs(t - 0.01))
    assert fidr[near] < fir[near]
    # late-time errors of the two kernels stay within one order of magnitude
    assert abs(np.log10(fir[-1] / fidr[-1])) <= 1.0


def test_convergence_sweep_row_count(tmp_path):
    code, text = run_cli(tmp_path, "convergence", "--alpha", "0.5", "--h", "0.05",
                         "--dt", "0.1", "--levels", "3")
    assert code == 0
    config, header, rows = parse_csv(text)
    assert header == ["scheme", "n_modes", "dt", "related_error", "status"]
    # |ladder| x |schemes| x |mode set| = 3 x 3 x 2
    assert len(rows) == 18
    assert all(r[-1] == "ok" for r in rows)
    fidr25 = sorted((float(r[2]), float(r[3])) for r in rows
                    if r[0] == "fidr" and r[1] == "25")
    errs = [e for _, e in fidr25]
    assert errs[0] <= errs[1] <= errs[2]   # error grows with dt


@pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError, MemoryError,
                                   ConstructionError, FloatingPointError])
def test_convergence_reports_a_mapped_failure_as_a_row(tmp_path, monkeypatch, error):
    """A failure that ``main`` maps to an exit code is a row of the sweep."""
    def fail(*args, **kwargs):
        raise error("no run")
    monkeypatch.setattr(cli, "solve", fail)
    code, text = run_cli(tmp_path, "convergence", "--levels", "1", "--jobs", "1")
    _, _, rows = parse_csv(text)
    assert code == 0 and len(rows) == 6
    assert all(r[3] == "" and r[4] == "failed: no run" for r in rows)


@pytest.mark.parametrize("error, code, kind", [(np.linalg.LinAlgError, 4, "numerical"),
                                               (ValueError, 2, "validation")],
                         ids=["LinAlgError", "ValueError"])
@pytest.mark.parametrize("name, argv", [("solve", ["solve", "--h", "0.1"]),
                                        ("run_property_suite", ["property-suite", "--quick"])],
                         ids=["solve", "property-suite"])
def test_run_failure_exit_codes(capsys, monkeypatch, error, code, kind, name, argv):
    """A singular matrix is a numerical failure (4), though a LinAlgError is
    a ValueError, which is bad input (2)."""
    def fail(*args, **kwargs):
        raise error("singular")
    monkeypatch.setattr(cli, name, fail)
    assert main(argv) == code
    assert json.loads(capsys.readouterr().err) == {"error": kind, "detail": "singular"}


def test_convergence_raises_a_bug(tmp_path, monkeypatch):
    """Any other error is a bug: it is raised, not printed as a failed row."""
    def bug(*args, **kwargs):
        raise TypeError("a bug")
    monkeypatch.setattr(cli, "solve", bug)
    with pytest.raises(TypeError, match="a bug"):
        run_cli(tmp_path, "convergence", "--levels", "1", "--jobs", "1")


@pytest.mark.parametrize("command", ["soe-error", "solve"])
@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_modes_refuses_an_explicit_kernel_setting(tmp_path, capsys, monkeypatch, command,
                                                  by_config):
    """--modes sets the whole ladder, so a ladder setting given beside it,
    by flag or by config key, is bad input (2) that names both; it is not
    silently overridden."""
    monkeypatch.setattr(cli, "build_soe", lambda *a: pytest.fail("built a kernel"))
    monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solved"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"soe_b": 20} if by_config else {}))
    ladder = [] if by_config else ["--soe-b", "20"]
    code, out = run_cli(tmp_path, command, "--alpha", "0.3", "--modes", "9", *ladder,
                        "--config", str(cfg))
    assert code == 2 and out == ""
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation"
    assert "modes" in error["detail"] and "soe_b" in error["detail"]


def test_convergence_gl_baseline_decreases(tmp_path):
    code, text = run_cli(tmp_path, "convergence", "--alpha", "0.5", "--h", "0.05",
                         "--dt", "0.1", "--levels", "3")
    _, _, rows = parse_csv(text)
    gl = sorted((float(r[2]), float(r[3])) for r in rows if r[0] == "gl" and r[1] == "9")
    errs = [e for _, e in gl]
    assert errs[0] <= errs[1] <= errs[2]


def test_solve_zero_error_on_exact_free_problem(tmp_path):
    code, text = run_cli(tmp_path, "solve", "--problem", "nonlinear", "--alpha", "0.5",
                         "--dt", "0.1", "--h", "0.1", "--scheme", "fidr")
    assert code == 0
    payload = json.loads(text)
    assert payload["global_error"] is None
    assert payload["n_modes_interior"] == 25


def test_solve_manufactured_report(tmp_path):
    code, text = run_cli(tmp_path, "solve", "--alpha", "0.1", "--dt", "0.1",
                         "--h", "0.02", "--scheme", "fidr", "--modes", "25")
    assert code == 0
    payload = json.loads(text)
    assert payload["related_error"] < 1e-3
    assert payload["wall_time"] >= 0.0


def test_solve_determinism_excluding_wall_time(tmp_path):
    args = ("solve", "--alpha", "0.3", "--dt", "0.1", "--h", "0.05", "--scheme", "fir")
    _, a = run_cli(tmp_path, *args, name="a")
    _, b = run_cli(tmp_path, *args, name="b")
    strip = lambda s: re.sub(r'"wall_time": [^,\n]+', '"wall_time": X', s)
    assert strip(a) == strip(b)


def test_csv_determinism(tmp_path):
    _, a = run_cli(tmp_path, "soe-error", "--samples", "50", name="a")
    _, b = run_cli(tmp_path, "soe-error", "--samples", "50", name="b")
    assert a == b


def test_validation_exit_code(tmp_path, capsys):
    """Bad input, a spacing that is not positive, too wide for 2 cells or
    too small for a finite cell count, a horizon with no finite step count,
    an empty sweep, a domain for the manufactured problem, whose domain is
    fixed, and a window on which the kernel bound overflows included, is
    exit 2 with a JSON error line: not a traceback, not a run on a clamped
    or ignored grid and not an empty CSV."""
    solve = (["--alpha", "1.5"], ["--modes", "17"], ["--dt", "0"], ["--h", "0"],
             ["--h", "-0.001", "--dt", "0.5", "--T", "1"],
             ["--h", "10", "--dt", "0.5", "--T", "1"], ["--h", "inf"],
             ["--scheme", "fidr", "--h", "1e-320", "--dt", "0.5", "--T", "1"],
             ["--T", "inf", "--dt", "0.5", "--h", "0.5"], ["--T", "1e300", "--dt", "1e-300"],
             ["--problem", "manufactured", "--x-lo", "5", "--x-hi", "9", "--h", "0.05"],
             ["--x-lo", "0", "--h", "0.05"], ["--x-hi", "1", "--h", "0.05"],
             # fir's kernel bound overflows on these windows
             ["--scheme", "fir", "--dt", "1e100", "--T", "1e101", "--h", "0.5"],
             ["--scheme", "fir", "--dt", "1e-300", "--T", "1e-299"])
    convergence = (["--levels", "0"], ["--levels", "-1"], ["--jobs", "0"], ["--jobs", "-1"])
    for argv in [["solve", *a] for a in solve] + [["convergence", *a] for a in convergence]:
        code, out = run_cli(tmp_path, *argv)
        assert code == 2, argv
        assert out == ""
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        if argv[0] == "convergence":   # the message names the setting
            span = "in 1..1" if argv[1] == "--jobs" else ">= 1"
            assert err["detail"].startswith(f"{argv[1][2:]} must be an integer {span}")


@pytest.mark.parametrize("setting", [{"x_lo": -2.0}, {"x_hi": 2.0}])
def test_manufactured_domain_config_is_a_validation_error(tmp_path, capsys, setting):
    """A domain end set by config key is refused with the manufactured
    problem, as by flag; with the nonlinear problem it sets the domain."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(setting))
    code, out = run_cli(tmp_path, "solve", "--config", str(cfg), "--h", "0.05")
    assert code == 2 and out == ""
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    cfg.write_text(json.dumps({**setting, "problem": "nonlinear"}))
    code, out = run_cli(tmp_path, "solve", "--config", str(cfg), "--h", "0.05", "--T", "0.2")
    (key, value), = setting.items()
    assert code == 0 and json.loads(out)[key] == value


def test_grid_too_large_for_memory_is_a_validation_error(tmp_path, capsys, monkeypatch):
    """A grid numpy cannot allocate (22.9 TiB at --h 1e-12) is bad input (2)
    with a JSON error line, not a traceback.  The refusal is simulated: a
    real request of that size could succeed and exhaust the machine where
    memory is overcommitted."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 22.9 TiB for an array")
    monkeypatch.setattr(cli, "solve", refuse)
    code, out = run_cli(tmp_path, "solve", "--h", "1e-12", "--dt", "0.5", "--T", "1")
    assert code == 2 and out == ""
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation" and "TiB" in error["detail"]


@pytest.mark.parametrize("scheme", ["l1", "gl"])
@pytest.mark.parametrize("flags", [["--modes", "17"], ["--soe-a", "10", "--soe-b", "3"]])
def test_direct_schemes_validate_kernel_flags(tmp_path, capsys, monkeypatch, scheme, flags):
    """A bad mode preset or ladder is bad input for every scheme, not only
    for the fast ones that read it."""
    monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solved with bad flags"))
    code, _ = run_cli(tmp_path, "solve", "--scheme", scheme, "--h", "0.1", *flags)
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


@pytest.mark.parametrize("setting", [{"scheme": "FIR"}, {"problem": "bogus"}])
def test_config_values_obey_flag_choices(tmp_path, capsys, monkeypatch, setting):
    """A config value outside its flag's choices is bad input (2) before any
    solve, as the same value given as a flag is."""
    (key, value), = setting.items()
    with pytest.raises(SystemExit) as flag_exit:
        main(["solve", f"--{key}", value])
    assert flag_exit.value.code == 2
    capsys.readouterr()
    monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solved a bad config"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(setting))
    code, _ = run_cli(tmp_path, "solve", "--config", str(cfg), "--h", "0.1")
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


@pytest.mark.parametrize("command, setting", [
    ("soe-error", {"samples": 2.9}), ("solve", {"alpha": None}), ("solve", {"alpha": [0.5]}),
    ("solve", {"dt": {}}), ("convergence", {"levels": True})])
def test_config_values_parse_as_their_flags_text(tmp_path, capsys, monkeypatch, command,
                                                 setting):
    """A config value is parsed as its flag's text would be, so one the flag
    rejects is bad input (2) before the subcommand runs: not converted
    (2.9 to 2, true to 1) and not a traceback."""
    (key, value), = setting.items()
    with pytest.raises(SystemExit) as flag_exit:
        main([command, f"--{key}", str(value)])
    assert flag_exit.value.code == 2
    capsys.readouterr()
    _, help_text, keys = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command,
                        (lambda args: pytest.fail("ran a bad config"), help_text, keys))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(setting))
    assert main([command, "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_config_keys_resolve_as_their_flags(tmp_path, monkeypatch):
    """Every setting of every subcommand takes the same value, of its
    default's type, from its config key as from its flag."""
    seen = []
    for command, (_, help_text, keys) in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, command, (seen.append, help_text, keys))
    cfg = tmp_path / "cfg.json"
    checked = 0
    for command, (_, _, keys) in cli.COMMANDS.items():
        for key in (k for k in keys if k in cli.SETTINGS):
            default = cli.SETTINGS[key][0]
            if key in cli.CHOICES:
                value = next(c for c in cli.CHOICES[key] if c != default)
            else:
                value = {int: 7, float: 0.375}[type(default)]
            cfg.write_text(json.dumps({key: value}))
            main([command, "--config", str(cfg)])
            main([command, "--" + key.replace("_", "-"), str(value)])
            main([command])
            by_config, by_flag, unset = (vars(args) for args in seen[-3:])
            assert by_config.pop("config") == str(cfg) and by_flag.pop("config") is None
            assert by_config == by_flag, (command, key)
            assert by_flag[key] == value and type(by_flag[key]) is type(default)
            assert unset[key] == default
            checked += 1
    assert checked == 24  # 39 flags less --out, --config, --modes, --jobs, --snapshots, --quick


@pytest.mark.parametrize("alpha", ["1e-320", "1e-17"])
def test_tiny_order_is_a_validation_error(tmp_path, capsys, alpha):
    """Gamma(alpha) overflows at 1e-320 and alpha - 1 rounds to -1 at 1e-17:
    both are bad input (2) with a JSON error line, not a traceback."""
    code, _ = run_cli(tmp_path, "solve", "--alpha", alpha, "--dt", "0.5", "--h", "0.5",
                      "--scheme", "fidr")
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_soe_error_needs_two_samples(tmp_path, capsys):
    """Each curve is soe_max_error's, which samples at least 2 points."""
    code, text = run_cli(tmp_path, "soe-error", "--samples", "1")
    assert code == 2 and text == ""
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    code, text = run_cli(tmp_path, "soe-error", "--samples", "2")
    assert code == 0 and len(parse_csv(text)[2]) == 2


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_soe_error_checks_the_order_itself(tmp_path, capsys, alpha):
    """An order outside (0, 1) is refused by name, not as fir's kernel order
    alpha + 1 inside the kernel build."""
    code, text = run_cli(tmp_path, "soe-error", "--alpha", alpha)
    assert code == 2 and text == ""
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "detail": "order must lie in (0, 1)"}


def test_one_step_fast_solve_is_a_validation_error(tmp_path, capsys):
    """fidr, the default scheme, needs 2 steps for a kernel window [dt, T]."""
    code, text = run_cli(tmp_path, "solve", "--dt", "1", "--T", "1")
    assert code == 2 and text == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "at least 2 steps" in err["detail"] and "delta" not in err["detail"]
    code, _ = run_cli(tmp_path, "solve", "--dt", "1", "--T", "1", "--scheme", "l1")
    assert code == 0


def test_step_too_long_for_grid_is_a_validation_error(tmp_path, capsys):
    """At dt = 1e12 the time term dt**-a / Gamma(2-a) is lost beside 2/h**2,
    so the matrix is not provably nonsingular: bad input (2), not a traceback."""
    code, _ = run_cli(tmp_path, "solve", "--alpha", "0.99", "--dt", "1e12", "--T", "1e12",
                      "--h", "1e-3", "--scheme", "l1")
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_solve_blowup_exit_code(tmp_path, monkeypatch):
    """A run whose field overflows is a numerical failure (4), not bad input (2)."""
    monkeypatch.setattr(cli, "nonlinear_problem", lambda alpha, x_lo, x_hi: DiffusionProblem(
        alpha, x_lo, x_hi, lambda x: np.full_like(x, 5.0), lambda x, t, u: u ** 2))
    with np.errstate(over="ignore", invalid="ignore"):
        code, _ = run_cli(tmp_path, "solve", "--problem", "nonlinear", "--alpha", "0.5",
                          "--dt", "0.1", "--T", "2", "--h", "0.025", "--x-lo", "0",
                          "--x-hi", "1", "--scheme", "fidr", "--modes", "25")
    assert code == 4


@pytest.mark.parametrize("argv", [["tail-table", "--seed", "3"], ["solve", "--jobs", "2"]])
def test_unread_flags_rejected(argv):
    """--seed belongs to property-suite and --jobs to convergence only."""
    with pytest.raises(SystemExit):
        main(argv)


def test_property_suite_exit_and_ledger(tmp_path):
    code, text = run_cli(tmp_path, "property-suite", "--seed", "42", "--quick")
    assert code == 0
    ledger = json.loads(text)
    assert ledger["all_pass"] is True
    names = {s["name"] for s in ledger["suites"]}
    assert {"fir_coercivity", "fidr_coercivity", "mesh_sobolev",
            "truncation_l1", "truncation_fidr", "gl_stability"} <= names


def test_config_file_with_flag_override(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "samples": 40}))
    code, text = run_cli(tmp_path, "soe-error", "--config", str(cfg))
    assert code == 0
    config, _, rows = parse_csv(text)
    assert config["alpha"] == 0.5 and len(rows) == 40
    code, text = run_cli(tmp_path, "soe-error", "--config", str(cfg),
                         "--alpha", "0.2", name="b")
    config, _, _ = parse_csv(text)
    assert config["alpha"] == 0.2
    # the file gives settings only: the output path and --jobs
    # come from their flags alone
    elsewhere = tmp_path / "elsewhere"
    cfg.write_text(json.dumps({"samples": 40, "jobs": 2, "out": str(elsewhere)}))
    assert main(["soe-error", "--config", str(cfg)]) == 0
    assert len(parse_csv(capsys.readouterr().out)[2]) == 40 and not elsewhere.exists()
    assert main(["convergence", "--config", str(cfg), "--dt", "0.5", "--h", "0.5",
                 "--levels", "1"]) == 0
    assert not elsewhere.exists()


@pytest.mark.parametrize("text", ["{", "[1]", "5"])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _ = run_cli(tmp_path, "tail-table", "--config", str(cfg))
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_jobs_takes_only_one(tmp_path, capsys):
    """The sweep runs in one process: --jobs 1 is the default, and any other
    count is bad input (2) that names the flag."""
    args = ("convergence", "--alpha", "0.5", "--h", "0.1", "--dt", "0.1", "--levels", "2")
    _, default = run_cli(tmp_path, *args, name="a")
    _, one = run_cli(tmp_path, *args, "--jobs", "1", name="b")
    assert one == default != ""
    code, out = run_cli(tmp_path, *args, "--jobs", "2", name="c")
    assert code == 2 and out == ""
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "detail": "jobs must be an integer in 1..1, got 2"}

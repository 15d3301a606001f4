"""Rewrite the golden CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root after an intended change to an output, and
commit the rewritten files with that change:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case is one ``fraccaputo`` command, run in process through
``cli.main``.  Its stdout, less the ``wall_time`` line of a ``solve``
report, which no two runs repeat, is ``tests/golden/<name>.txt``.
"""
import contextlib
import io
import pathlib
import re

from fraccaputo import cli

COMMAND = "PYTHONPATH=src python tests/golden/regenerate.py"
HERE = pathlib.Path(__file__).parent

_SOLVE = ["solve", "--alpha", "0.5", "--dt", "1e-2", "--h", "1e-3"]
# a few steps on a coarse grid, so that every snapshot's field is pinned
_FIELDS = ["solve", "--alpha", "0.5", "--dt", "0.05", "--T", "0.2", "--h", "1e-2", "--snapshots"]

#: golden name -> the command's arguments
CASES = {
    **{f"solve-{s}-{n}": _SOLVE + ["--scheme", s, "--modes", str(n)]
       for s in ("fir", "fidr") for n in (25, 40)},
    **{f"solve-{s}": _SOLVE + ["--scheme", s] for s in ("l1", "gl")},
    **{f"fields-{s}": _FIELDS + ["--scheme", s] for s in ("l1", "fir", "fidr", "gl")},
    "convergence": ["convergence", "--alpha", "0.5", "--levels", "4"],
    "soe-error": ["soe-error"],
    "tail-table": ["tail-table"],
    **{f"property-suite-quick-{seed}": ["property-suite", "--quick", "--seed", str(seed)]
       for seed in (1, 42)},
    "property-suite-7": ["property-suite", "--seed", "7"],
}


def output(argv) -> str:
    """stdout of a run of ``cli.main(argv)`` that exits 0, without ``wall_time``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"fraccaputo {' '.join(argv)} exited {code}")
    return re.sub(r'\n *"wall_time": [^\n]*', "", stdout.getvalue())


def main() -> None:
    for name, argv in CASES.items():
        (HERE / f"{name}.txt").write_text(output(argv))


if __name__ == "__main__":
    main()

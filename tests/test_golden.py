"""Every CLI output that a refactor must keep, against its golden copy in
``tests/golden/``.  Text and integers must match exactly; a float within
1e-12 relative of its golden value, or within the CLI's print-as-zero
threshold of a golden 0, matches.  ``solve``'s ``wall_time`` is left out."""
import math
import re

import pytest

from golden.regenerate import CASES, COMMAND, HERE, output

#: a number as the CLI prints it; one without a point or an exponent is an integer
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
ZERO_FLOOR = 1e-15


def _matches(new: str, old: str) -> bool:
    if float(old) == 0.0:
        return abs(float(new)) <= ZERO_FLOOR
    if not any(c in old for c in ".eE"):
        return new == old
    return math.isclose(float(new), float(old), rel_tol=1e-12, abs_tol=0.0)


def _differences(new: str, old: str) -> list:
    """The first places where ``new`` does not match ``old``, as text."""
    new_text, old_text = NUMBER.split(new), NUMBER.split(old)
    if new_text != old_text:
        k = next((k for k, (a, b) in enumerate(zip(new_text, old_text)) if a != b),
                 min(len(new_text), len(old_text)))
        return [f"text {new_text[k:k + 1]!r} where the golden has {old_text[k:k + 1]!r}"]
    return [f"{a} where the golden has {b}"
            for a, b in zip(NUMBER.findall(new), NUMBER.findall(old)) if not _matches(a, b)][:5]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    differences = _differences(output(CASES[name]), (HERE / f"{name}.txt").read_text())
    assert not differences, (f"fraccaputo {' '.join(CASES[name])}: {differences}; if the change "
                             f"is intended, rewrite the goldens with `{COMMAND}`")


def test_every_golden_has_its_case():
    assert sorted(path.stem for path in HERE.glob("*.txt")) == sorted(CASES)

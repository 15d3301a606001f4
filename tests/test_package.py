import builtins
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraccaputo
from fraccaputo import schemes
from fraccaputo.pde import DiffusionProblem, SpaceGrid, solve
from fraccaputo.property_suite import theorem_constants, truncation_bound, truncation_suite
from fraccaputo.schemes import SCHEMES, TimeGrid, kernel_order, new_history
from fraccaputo.soe import SoEParams


def test_public_names_are_pinned():
    """The public names of the package and of ``schemes``; any change to
    these lists is deliberate.  The scalar steppers stay ``schemes``
    attributes outside ``__all__``: a stream steps ``new_history``'s state."""
    assert sorted(fraccaputo.__all__) == [
        "ConstructionError", "DiffusionProblem", "QuadRule", "SoEApproximation", "SoEParams",
        "SolveReport", "SpaceGrid", "TimeGrid", "build_soe", "caputo_reference",
        "gauss_jacobi_power", "gauss_legendre", "manufactured_problem", "new_history",
        "nonlinear_problem", "soe_error_bound_terms", "soe_eval", "soe_max_error", "solve",
        "tail_integral", "theorem_constants", "truncation_bound",
    ]
    assert sorted(schemes.__all__) == [
        "DirectHistory", "FastHistory", "TimeGrid", "caputo_reference", "gl_coefficients",
        "kernel_order", "new_history",
    ]
    for module in (fraccaputo, schemes):
        assert all(hasattr(module, name) for name in module.__all__)
    assert all(callable(getattr(schemes, name))
               for name in ("fir_step", "fidr_step", "gl_step", "l1_step", "l1_weights"))


def test_no_public_name_shadows_a_builtin():
    """No name in the ``__all__`` of the package or of one of its modules
    hides a Python builtin from a star import."""
    modules = [fraccaputo] + [importlib.import_module(f"fraccaputo.{m.name}")
                              for m in pkgutil.iter_modules(fraccaputo.__path__)]
    shadowing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
                 if name in dir(builtins)]
    assert shadowing == []


def _solve(name):
    problem = DiffusionProblem(0.5, 0.0, 1.0, np.zeros_like, lambda x, t, u: np.zeros_like(x))
    return solve(problem, TimeGrid(0.1, 2), SpaceGrid(0.0, 1.0, 4), name, SoEParams(3, 10, 4, 3))


#: every entry point that takes a rule name: a call on the name, and the names it takes
NAMED_RULES = {
    "solve": (_solve, SCHEMES),
    "new_history": (lambda name: new_history(name, 0.5, 0.1, 0.0, n_modes=1), SCHEMES),
    "kernel_order": (lambda name: kernel_order(name, 0.5), ("fir", "fidr")),
    "theorem_constants": (lambda name: theorem_constants(0.5, 1.0, 0.1, 0.0, name),
                          ("fir", "fidr")),
    "truncation_bound": (lambda name: truncation_bound(name, 0.5, 0.1, 1.0), ("l1", "fidr")),
    "truncation_suite": (lambda name: truncation_suite(name, step_filter=[1]), ("l1", "fidr")),
}


@pytest.mark.parametrize("entry", NAMED_RULES)
def test_entry_points_take_their_own_rule_names(entry):
    call, names = NAMED_RULES[entry]
    for name in names:
        call(name)


def _respellings(name):
    return st.sampled_from([name.upper(), name.capitalize(), " " + name, name + " ", name + "\n"])


@pytest.mark.parametrize("entry", NAMED_RULES)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(name=st.one_of(st.sampled_from(SCHEMES), st.sampled_from(SCHEMES).flatmap(_respellings),
                      st.text(max_size=6)))
@example(name="FIR")
@example(name="L1")
@example(name=" fidr")
def test_any_other_rule_name_is_a_value_error(entry, name):
    """One spelling per rule: a name is not case-folded or stripped, and a
    rule of another family is refused where it is passed."""
    call, names = NAMED_RULES[entry]
    assume(name not in names)
    with pytest.raises(ValueError):
        call(name)

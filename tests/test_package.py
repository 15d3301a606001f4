import ast
import builtins
import importlib
import inspect
import math
import pathlib
import pkgutil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraccaputo
from fraccaputo import quadrature, schemes, soe
from fraccaputo.pde import DiffusionProblem, SpaceGrid, solve
from fraccaputo.property_suite import theorem_constants, truncation_bound, truncation_suite
from fraccaputo.quadrature import gauss_jacobi_power, gauss_legendre
from fraccaputo.schemes import SCHEMES, TimeGrid, caputo_reference, kernel_order, new_history
from fraccaputo.soe import SoEParams, build_soe, soe_eval, soe_max_error, tail_integral


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


def _solve(name, snapshot_stride=None):
    problem = DiffusionProblem(0.5, 0.0, 1.0, np.zeros_like, lambda x, t, u: np.zeros_like(x))
    return solve(problem, TimeGrid(0.1, 2), SpaceGrid(0.0, 1.0, 4), name, SoEParams(3, 10, 4, 3),
                 snapshot_stride=snapshot_stride)


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


_KERNEL = build_soe(0.5, SoEParams(3, 10, 4, 3), 1e-2, 1.0)

#: every entry point that takes a count: a call on the count, the least count
#: it takes, and the values it also takes in place of a count
COUNTS = {
    "TimeGrid.n_steps": (lambda n: TimeGrid(0.1, n), 1, ()),
    "new_history.n_modes": (lambda n: new_history("fir", 0.5, 0.1, 0.0, n_modes=n), 1, ()),
    "SpaceGrid.n_cells": (lambda n: SpaceGrid(0.0, 1.0, n), 2, ()),
    "solve.snapshot_stride": (lambda n: _solve("fidr", snapshot_stride=n), 1, (None,)),
    "SoEParams.b": (lambda n: SoEParams(3, n, 4, 3), 4, ()),
    "SoEParams.n1": (lambda n: SoEParams(3, 10, n, 3), 0, ()),
    "SoEParams.n2": (lambda n: SoEParams(3, 10, 4, n), 1, ()),
    "soe_max_error.n_samples": (lambda n: soe_max_error(_KERNEL, n), 2, ()),
    "truncation_suite.steps": (lambda n: truncation_suite("fidr", step_filter=[n]), 1, ()),
    "gauss_legendre.n": (lambda n: gauss_legendre(n, 0.0, 1.0), 1, ()),
    "gauss_jacobi_power.n": (lambda n: gauss_jacobi_power(n, 0.5, 1.0), 1, ()),
}


@pytest.mark.parametrize("entry", COUNTS)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(kind=st.sampled_from([int, np.int64, np.int32, np.uint16]), below=st.integers(1, 2 ** 40),
       other=st.one_of(st.floats(), st.none(), st.text(max_size=3), st.lists(st.integers(1, 3))))
@example(kind=int, below=1, other=2.5)
@example(kind=np.int64, below=1, other=None)
@example(kind=int, below=1, other="3")
def test_counts_are_integers_from_their_least(entry, kind, below, other):
    """A count is a Python or numpy integer of at least its least value;
    one below it, a float (3.0 included), None or a string is a ValueError."""
    call, least, also = COUNTS[entry]
    call(kind(least))
    for bad in (least - below, other):
        if bad not in also:
            with pytest.raises(ValueError):
                call(bad)


def _l1_stream(alpha, dt):
    """Three steps of an l1 stream: the rules share ``_Evaluator``'s reading
    of alpha and dt, so one rule stands for all four."""
    state = new_history("l1", alpha, dt, 1.0)
    return [state.step(u) for u in (2.0, 0.5, 3.0)]


def _rule(rule):
    return rule.nodes, rule.weights


#: every entry point that reads a real number through ``quadrature._real``: a
#: call on the number, and the least and the greatest value the call takes
REALS = {
    "TimeGrid.dt": (lambda v: TimeGrid(v, 4).horizon, 1e-3, 8.0),
    "new_history.alpha": (lambda v: _l1_stream(v, 0.1), 0.05, 0.95),
    "new_history.dt": (lambda v: _l1_stream(0.5, v), 1e-3, 4.0),
    "SpaceGrid.x_lo": (lambda v: SpaceGrid(v, 1.0, 4).points(), -4.0, 0.5),
    "SpaceGrid.x_hi": (lambda v: SpaceGrid(0.0, v, 4).points(), 0.5, 4.0),
    "SpaceGrid.from_spacing.h": (lambda v: SpaceGrid.from_spacing(0.0, 8.0, v).points(),
                                 0.1, 4.0),
    "gauss_legendre.lo": (lambda v: _rule(gauss_legendre(3, v, 2.0)), -4.0, 1.5),
    "gauss_legendre.hi": (lambda v: _rule(gauss_legendre(3, 0.0, v)), 0.5, 4.0),
    "gauss_jacobi_power.a": (lambda v: _rule(gauss_jacobi_power(3, 0.5, v)), 0.1, 8.0),
    "tail_integral.beta": (lambda v: tail_integral(v, 2.0, 3.0), 0.1, 1.9),
    "tail_integral.p": (lambda v: tail_integral(1.5, v, 0.5), 0.1, 8.0),
    "tail_integral.t": (lambda v: tail_integral(1.5, 2.0, v), 1e-2, 4.0),
    "soe_eval.t": (lambda v: soe_eval(_KERNEL, v), 1e-2, 1.0),
    "caputo_reference.t": (lambda v: (caputo_reference("power", 0.5, v, 2.0),
                                      caputo_reference("sin", 0.5, v)), 0.1, 4.0),
}

#: what is not a number: none of it is parsed, cast or taken as 0 or 1
NOT_NUMBERS = {"str": "0.5", "bool": True, "None": None, "complex": 1j, "object": object()}


@pytest.mark.parametrize("bad", NOT_NUMBERS)
@pytest.mark.parametrize("entry", [*REALS, *COUNTS])
def test_what_is_not_a_number_is_a_value_error(entry, bad):
    """A string, a bool, None, a complex or an object is refused where a
    real number is read, in ``_real``'s words, and where a count is read,
    in ``_check_count``'s."""
    if entry in REALS:
        call, wording, also = REALS[entry][0], "integer or floating kind", ()
    else:
        (call, _, also), wording = COUNTS[entry], "must be an integer"
    if NOT_NUMBERS[bad] not in also:   # snapshot_stride takes None for its default
        with pytest.raises(ValueError, match=wording):
            call(NOT_NUMBERS[bad])


def _bits(result):
    return np.asarray(result, dtype=float).tobytes()


@pytest.mark.parametrize("entry", REALS)
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_every_real_kind_gives_the_float_result(entry, data):
    """An int, a numpy integer or a numpy float gives a result equal bit for
    bit to the float's: a number is read as the float64 it stands for."""
    call, least, most = REALS[entry]
    whole = (st.integers(math.ceil(least), math.floor(most)) if math.ceil(least) <= most
             else st.nothing())
    x = data.draw(st.one_of(st.floats(least, most), whole))
    kinds = (np.float64, int, np.int64) if float(x).is_integer() else (np.float64,)
    want = _bits(call(float(x)))
    for kind in kinds:
        assert _bits(call(kind(x))) == want, kind


def _integral_uses(source):
    """The times ``source`` names ``Integral``: as an attribute, a name or an import."""
    return sum(1 for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Attribute) and node.attr == "Integral"
               or isinstance(node, ast.Name) and node.id == "Integral"
               or isinstance(node, ast.alias) and node.name == "Integral")


def test_integer_check_is_written_once():
    """Only ``quadrature._check_count`` asks for a ``numbers.Integral``:
    every count check in the package goes through it."""
    package = pathlib.Path(fraccaputo.__file__).parent
    uses = sum(_integral_uses(path.read_text()) for path in package.glob("*.py"))
    assert uses == _integral_uses(inspect.getsource(quadrature._check_count)) == 1


def test_real_numbers_are_read_once():
    """``_real`` is defined once, in ``quadrature``; the shared checks of a
    number read through it, and the readers of times and interval ends
    convert no parameter by hand with ``dtype=float``."""
    package = pathlib.Path(fraccaputo.__file__).parent
    defined = [(path.stem, node.name) for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "_real"]
    assert defined == [("quadrature", "_real")]
    for check in (quadrature._check_positive, quadrature._check_step, quadrature._check_order):
        assert _calls_of(ast.parse(inspect.getsource(check)), "_real"), check.__name__
    for reader in (schemes.caputo_reference, soe.soe_eval, quadrature.gauss_legendre):
        tree = ast.parse(inspect.getsource(reader))
        params = {arg.arg for arg in ast.walk(tree) if isinstance(arg, ast.arg)}
        by_hand = [ast.unparse(call) for call in ast.walk(tree) if isinstance(call, ast.Call)
                   and any(isinstance(arg, ast.Name) and arg.id in params for arg in call.args)
                   and any(kw.arg == "dtype" and ast.unparse(kw.value) == "float"
                           for kw in call.keywords)]
        assert by_hand == [], reader.__name__


def _calls_of(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_samples_enter_through_the_evaluator_alone():
    """Only ``schemes._Evaluator`` calls ``_samples``, at u^0, ``push`` and
    ``step``, and no other class in the package defines ``push`` or
    ``step``: a rule stores the samples that this one door has checked."""
    package = pathlib.Path(fraccaputo.__file__).parent
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    door, = (cls for cls in classes if cls.name == "_Evaluator")
    assert len(_calls_of(door, "_samples")) == sum(len(_calls_of(t, "_samples")) for t in trees) == 3
    doors = sorted((cls.name, f.name) for cls in classes for f in cls.body
                   if isinstance(f, ast.FunctionDef) and f.name in ("push", "step"))
    assert doors == [("_Evaluator", "push"), ("_Evaluator", "step")]

import builtins
import importlib
import pkgutil

import fraccaputo


def test_public_names_are_pinned():
    """The package's public names; any change to this list is deliberate."""
    assert sorted(fraccaputo.__all__) == [
        "ConstructionError", "DiffusionProblem", "QuadRule", "SoEApproximation", "SoEParams",
        "SolveReport", "SpaceGrid", "TimeGrid", "build_soe", "caputo_reference", "fidr_step",
        "fir_step", "gauss_jacobi_power", "gauss_legendre", "gl_step", "l1_step", "l1_weights",
        "manufactured_problem", "new_history", "nonlinear_problem", "soe_error_bound_terms",
        "soe_eval", "soe_max_error", "solve", "tail_integral", "theorem_constants",
        "truncation_bound",
    ]
    assert all(hasattr(fraccaputo, name) for name in fraccaputo.__all__)


def test_no_public_name_shadows_a_builtin():
    """No name in the ``__all__`` of the package or of one of its modules
    hides a Python builtin from a star import."""
    modules = [fraccaputo] + [importlib.import_module(f"fraccaputo.{m.name}")
                              for m in pkgutil.iter_modules(fraccaputo.__path__)]
    shadowing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
                 if name in dir(builtins)]
    assert shadowing == []

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

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccaputo.pde import (
    DiffusionProblem,
    SpaceGrid,
    _banded_matrix,
    _factor,
    _norm_terms,
    manufactured_problem,
    nonlinear_problem,
    solve,
    solve_banded,
)
from fraccaputo.schemes import TimeGrid, caputo_reference
from fraccaputo.soe import SoEParams

from oracles import manufactured_fields

PI = math.pi
BENCH = SoEParams.from_ladder(3, 10, 4, 3)
TIGHT = SoEParams.from_ladder(0, 14, 8, 25)


def zero_problem(alpha=0.4):
    return DiffusionProblem(alpha, 0.0, 1.0, lambda x: np.zeros_like(x),
                            lambda x, t, u: np.zeros_like(x),
                            exact=lambda x, t: np.zeros_like(x))


@pytest.mark.parametrize("scheme,params", [
    ("l1", None), ("gl", None), ("fir", BENCH), ("fidr", BENCH),
])
def test_zero_data_gives_zero_solution(scheme, params):
    rep = solve(zero_problem(), TimeGrid(0.05, 12), SpaceGrid(0.0, 1.0, 16),
                scheme, params)
    assert rep.global_error == 0.0
    # the related error is undefined against an identically-zero solution
    assert rep.related_error is None
    for _, u in rep.snapshots:
        np.testing.assert_array_equal(u, 0.0)


def test_blowup_raises_numerical_error():
    """Reaction u**2 from u0 = 5 overflows within a few steps."""
    prob = DiffusionProblem(0.5, 0.0, 1.0, lambda x: np.full_like(x, 5.0),
                            lambda x, t, u: u ** 2)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="not finite at step"):
        solve(prob, TimeGrid(0.1, 20), SpaceGrid(0.0, 1.0, 40), "fidr", BENCH)


def test_manufactured_initial_slice():
    prob = manufactured_problem(0.3)
    x = np.array([0.0, PI / 2.0, PI])
    vals = prob.exact(x, 0.0)
    np.testing.assert_allclose(vals, [0.0, (PI / 2.0) ** 8, 0.0], atol=1e-12)
    np.testing.assert_allclose(prob.initial(x), vals, atol=1e-12)


def test_manufactured_exact_vanishes_at_walls():
    prob = manufactured_problem(0.7)
    for t in (0.1, 0.5, 1.0):
        assert prob.exact(np.array([0.0]), t)[0] == 0.0
        assert abs(prob.exact(np.array([PI]), t)[0]) < 1e-25


def test_manufactured_residual_is_zero():
    """Defining identity of the manufactured data: D^a u - u_xx - f == 0,
    with the time derivative from the power rule and u_xx from sympy."""
    import sympy as sp

    alpha = 0.37
    prob = manufactured_problem(alpha)
    xs = sp.symbols("x", positive=True)
    # split u = g(x) * exp(-x) * t**(3+alpha) + g(x); x-derivatives act on each part
    g = xs ** 4 * (sp.pi - xs) ** 4
    part_t = sp.diff(g * sp.exp(-xs), xs, 2)
    part_0 = sp.diff(g, xs, 2)
    uxx_t = sp.lambdify(xs, part_t, "numpy")
    uxx_0 = sp.lambdify(xs, part_0, "numpy")
    g_np = sp.lambdify(xs, g, "numpy")

    rng = np.random.default_rng(3)
    for _ in range(20):
        x = float(rng.uniform(0.05, PI - 0.05))
        t = float(rng.uniform(0.05, 1.0))
        d_t = g_np(x) * math.exp(-x) * caputo_reference("power", alpha, t, sigma=3.0 + alpha)
        u_xx = uxx_t(x) * t ** (3.0 + alpha) + uxx_0(x)
        f = prob.source(np.array([x]), t, None)[0]
        resid = d_t - u_xx - f
        scale = max(abs(d_t), abs(u_xx), abs(f), 1.0)
        assert abs(resid) <= 1e-8 * scale


# grid points: the walls, or interior points clear of the subnormal range of x**4
POINT = st.one_of(st.sampled_from([0.0, PI]), st.floats(1e-3, PI - 1e-3))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(alpha=st.floats(0.01, 0.99), times=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
       grid_a=st.lists(POINT, min_size=1, max_size=30),
       grid_b=st.lists(POINT, min_size=1, max_size=30), shift=st.floats(1e-3, 1.0))
def test_manufactured_fields_follow_the_grid(alpha, times, grid_a, grid_b, shift):
    """source and exact reuse their x-only factors per grid: calls that
    alternate between two grids, then go on with one grid changed in place,
    each match the closed form to 1e-13 relative."""
    prob = manufactured_problem(alpha)
    x_a, x_b = np.array(grid_a), np.array(grid_b)

    def check(x, t):
        source, exact, scale = manufactured_fields(x, t, alpha)
        assert np.all(np.abs(prob.source(x, t, None) - source) <= 1e-13 * scale)
        assert np.all(np.abs(prob.exact(x, t) - exact) <= 1e-13 * exact)

    for t in times:
        check(x_a, t)
        check(x_b, t)
    for t in times:
        check(x_a, t)
        x_a += shift
        check(x_a, t)


def norm_sums(history, exact, tgrid, sgrid):
    """The sums over steps 1..n_steps of the ``_norm_terms`` that ``solve``
    accumulates into its global and related errors."""
    x = sgrid.points()
    err_sq = ex_sq = 0.0
    for k in range(1, tgrid.n_steps + 1):
        err_k, ex_k = _norm_terms(history[k], exact(x, k * tgrid.dt), tgrid.dt)
        err_sq, ex_sq = err_sq + err_k, ex_sq + ex_k
    return err_sq, ex_sq


def test_global_error_hand_values():
    exact = lambda x, t: np.zeros_like(x)
    tgrid = TimeGrid(0.25, 1)
    sgrid = SpaceGrid(0.0, 1.0, 2)
    history = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    err_sq, _ = norm_sums(history, exact, tgrid, sgrid)
    assert math.sqrt(err_sq) == 1.0   # sqrt(0.25 * 4)
    prob = manufactured_problem(0.5)
    sg = SpaceGrid(0.0, PI, 8)
    tg = TimeGrid(0.2, 5)
    hist = np.stack([prob.exact(sg.points(), k * tg.dt) for k in range(6)])
    err_sq, _ = norm_sums(hist, prob.exact, tg, sg)
    assert math.sqrt(err_sq) == 0.0


def test_related_error_homogeneity():
    prob = manufactured_problem(0.5)
    sg = SpaceGrid(0.0, PI, 8)
    tg = TimeGrid(0.2, 5)
    hist = 1.01 * np.stack([prob.exact(sg.points(), k * tg.dt) for k in range(6)])
    err_sq, ex_sq = norm_sums(hist, prob.exact, tg, sg)
    np.testing.assert_allclose(math.sqrt(err_sq / ex_sq), 0.01, rtol=1e-12)


def test_banded_matrix_rows():
    h, sigma, sigma_b = 0.1, 3.0, 2.0
    ab = _banded_matrix(6, h, sigma, sigma_b)
    np.testing.assert_allclose(ab[1, 1:-1], sigma + 2.0 / h ** 2)
    np.testing.assert_allclose(ab[0, 2:], -1.0 / h ** 2)
    np.testing.assert_allclose(ab[2, :-2], -1.0 / h ** 2)
    np.testing.assert_allclose(ab[1, 0], sigma + 2.0 / h ** 2 + (2.0 / h) * sigma_b)
    np.testing.assert_allclose(ab[0, 1], -2.0 / h ** 2)
    # diagonal dominance
    assert np.all(ab[1, :] > 2.0 / h ** 2)


def test_factored_solve_matches_banded_solve():
    """One factorization serves every right-hand side, as scipy's banded
    solve of the same matrix does."""
    rng = np.random.default_rng(7)
    ab = _banded_matrix(200, 0.05, 3.0, 2.0)
    lu = _factor(ab)
    for _ in range(3):
        rhs = rng.normal(size=200)
        want = scipy.linalg.solve_banded((1, 1), ab, rhs)
        np.testing.assert_allclose(solve_banded(lu, rhs.copy()), want,
                                   rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


def test_singular_step_matrix_is_a_linalg_error():
    ab = np.zeros((3, 5))
    ab[1] = [1.0, 1.0, 0.0, 1.0, 1.0]
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _factor(ab)


def test_scheme_equivalence_coarse_grid():
    """Tightly compressed kernels must not move the discrete solution;
    quick version of the 32x64 acceptance check."""
    prob = manufactured_problem(0.5)
    tg = TimeGrid(1.0 / 32, 32)
    sg = SpaceGrid(0.0, PI, 16)
    u_l1 = solve(prob, tg, sg, "l1").snapshots[-1][1]
    u_fir = solve(prob, tg, sg, "fir", TIGHT).snapshots[-1][1]
    u_fidr = solve(prob, tg, sg, "fidr", TIGHT).snapshots[-1][1]
    assert np.max(np.abs(u_fir - u_l1)) <= 1e-8
    assert np.max(np.abs(u_fidr - u_l1)) <= 1e-8


def test_source_sees_step_time_and_lagged_field():
    """solve calls source(x, n dt, u^(n-1)) once per step n, with u^0 at step 1."""
    prob = manufactured_problem(0.5)
    calls = []

    def source(x, t, u):
        calls.append((x.copy(), t, u.copy()))
        return prob.source(x, t, u)

    tg, sg = TimeGrid(0.1, 5), SpaceGrid(0.0, PI, 16)
    rep = solve(dataclasses.replace(prob, source=source), tg, sg, "fidr", BENCH,
                snapshot_stride=1)
    assert len(calls) == tg.n_steps
    for n, (x, t, u) in enumerate(calls, start=1):
        np.testing.assert_array_equal(x, sg.points())
        assert t == n * tg.dt
        np.testing.assert_array_equal(u, rep.snapshots[n - 1][1])
    np.testing.assert_array_equal(calls[0][2], prob.initial(sg.points()))


def test_nonlinear_problem_data():
    prob = nonlinear_problem(0.5)
    np.testing.assert_allclose(prob.initial(np.array([0.5]))[0], 1.0 + math.exp(-10.0),
                               rtol=1e-12)
    assert prob.source(None, None, np.array([0.0]))[0] == 0.0
    assert prob.source(None, None, np.array([1.0]))[0] == 0.0
    assert prob.exact is None
    assert (prob.x_lo, prob.x_hi) == (-1.0, 1.0)
    custom = nonlinear_problem(0.5, 0.0, PI)
    assert (custom.x_lo, custom.x_hi) == (0.0, PI)


def test_nonlinear_self_errors_decrease():
    """Self-convergence smoke: errors against a finer run shrink as dt halves."""
    alpha = 0.5
    ref_dt, ref_nt = 1.25e-3, 800
    prob = nonlinear_problem(alpha)
    sg = SpaceGrid(-1.0, 1.0, 100)
    ref = solve(prob, TimeGrid(ref_dt, ref_nt), sg, "fidr", BENCH,
                snapshot_stride=1)
    ref_fields = {round(t / ref_dt): u for t, u in ref.snapshots}
    errs = []
    for dt in (1e-1, 5e-2, 2.5e-2):
        nt = round(1.0 / dt)
        rep = solve(prob, TimeGrid(dt, nt), sg, "fidr", BENCH, snapshot_stride=1)
        num = den = 0.0
        for t, u in rep.snapshots[1:]:
            u_ref = ref_fields[round(t / ref_dt)]
            num += dt * np.max(np.abs(u - u_ref)) ** 2
            den += dt * np.max(np.abs(u_ref)) ** 2
        errs.append(math.sqrt(num / den))
    assert errs[0] > errs[1] > errs[2]


def test_report_dict_round_trip():
    rep = solve(manufactured_problem(0.3), TimeGrid(0.1, 10), SpaceGrid(0.0, PI, 20),
                "fidr", BENCH)
    d = rep.to_dict()
    assert d["scheme"] == "fidr"
    assert d["n_modes_interior"] == 25 and d["n_modes_boundary"] == 25
    assert d["related_error"] > 0 and d["wall_time"] >= 0
    assert "snapshots" not in d
    d2 = rep.to_dict(include_snapshots=True)
    assert len(d2["snapshots"]) == len(rep.snapshots)


def test_snapshot_stride():
    rep = solve(zero_problem(), TimeGrid(0.05, 20), SpaceGrid(0.0, 1.0, 8),
                "l1", snapshot_stride=5)
    times = [t for t, _ in rep.snapshots]
    np.testing.assert_allclose(times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_solve_validation():
    prob = manufactured_problem(0.3)
    tg, sg = TimeGrid(0.1, 5), SpaceGrid(0.0, PI, 10)
    with pytest.raises(ValueError):
        solve(prob, tg, sg, "fir")                      # kernel params missing
    with pytest.raises(ValueError):
        solve(prob, tg, SpaceGrid(0.0, 1.0, 10), "l1")  # domain mismatch
    with pytest.raises(ValueError):
        solve(prob, tg, sg, "spectral")
    bad = DiffusionProblem(0.3, 0.0, 1.0, lambda x: np.ones_like(x),
                           lambda x, t, u: np.zeros_like(x),
                           exact=lambda x, t: np.zeros_like(x))
    with pytest.raises(ValueError):
        solve(bad, tg, SpaceGrid(0.0, 1.0, 10), "l1")   # exact(x,0) != initial


def test_spacegrid_from_spacing():
    sg = SpaceGrid.from_spacing(0.0, PI, 1e-3)
    assert sg.n_cells == 3142
    np.testing.assert_allclose(sg.h, PI / 3142, rtol=1e-15)
    with pytest.raises(ValueError):
        SpaceGrid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        SpaceGrid(0.0, 1.0, 1)
    # not clamped to a 2-cell grid: too wide a spacing rounds below 2 cells
    for h in (0.0, -1e-3, math.nan, 10.0, math.inf):
        with pytest.raises(ValueError):
            SpaceGrid.from_spacing(0.0, PI, h)

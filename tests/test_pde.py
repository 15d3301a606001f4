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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_source_fails_at_its_step(bad):
    """One non-finite forcing value at one interior point, from step 6 on,
    stops the solve at step 6."""
    def source(x, t, u):
        f = np.zeros_like(x)
        if t > 0.27:   # t_6 = 0.3 at dt = 0.05
            f[7] = bad
        return f

    prob = DiffusionProblem(0.4, 0.0, 1.0, lambda x: np.sin(PI * x), source)
    for scheme, params in (("l1", None), ("fidr", BENCH)):
        with pytest.raises(FloatingPointError, match="not finite at step 6 "):
            solve(prob, TimeGrid(0.05, 12), SpaceGrid(0.0, 1.0, 16), scheme, params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_exact_solution_at_t0_is_rejected(bad):
    """An exact solution that is not finite at t = 0 cannot match the
    initial data; a NaN mismatch must not slip through the tolerance test."""
    prob = DiffusionProblem(0.5, 0.0, 1.0, lambda x: np.zeros_like(x),
                            lambda x, t, u: np.zeros_like(x),
                            exact=lambda x, t: np.full_like(x, bad))
    with pytest.raises(ValueError, match="disagrees with initial data"):
        solve(prob, TimeGrid(0.1, 3), SpaceGrid(0.0, 1.0, 4), "l1")


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


@pytest.mark.parametrize("scheme", ["fir", "fidr"])
def test_one_step_fast_solve_is_rejected(scheme):
    """One step leaves the kernel window [dt, T] empty: a ValueError that
    says so, while the direct rules take the one step."""
    prob, tg, sg = manufactured_problem(0.5), TimeGrid(1.0, 1), SpaceGrid(0.0, PI, 16)
    with pytest.raises(ValueError, match=r"at least 2 steps.*\[dt, T\] = \[1.0, 1.0\] is empty"):
        solve(prob, tg, sg, scheme, BENCH)
    assert solve(prob, TimeGrid(0.5, 2), sg, scheme, BENCH).n_modes_interior == 25
    for direct in ("l1", "gl"):
        assert math.isfinite(solve(prob, tg, sg, direct).global_error)


def test_solve_passes_one_read_only_grid():
    """initial, source and exact all see the same grid, which owns its data
    and cannot be written."""
    prob = manufactured_problem(0.5)
    seen = []

    def keep(fn):
        def call(x, *args):
            seen.append(x)
            return fn(x, *args)
        return call

    prob = dataclasses.replace(prob, initial=keep(prob.initial), source=keep(prob.source),
                               exact=keep(prob.exact))
    solve(prob, TimeGrid(0.1, 3), SpaceGrid(0.0, PI, 16), "l1")
    assert len(seen) == 1 + 1 + 2 * 3
    assert all(x is seen[0] for x in seen)
    assert seen[0].flags.owndata and not seen[0].flags.writeable


def test_manufactured_read_only_grid_made_writeable_is_recomputed():
    """A read-only grid is its own key; made writeable and changed, it no
    longer matches the values its factors came from."""
    prob = manufactured_problem(0.5)
    x = np.linspace(0.0, PI, 9).copy()

    def check(t):
        source, exact, scale = manufactured_fields(x, t, 0.5)
        assert np.all(np.abs(prob.source(x, t, None) - source) <= 1e-13 * scale)
        assert np.all(np.abs(prob.exact(x, t) - exact) <= 1e-13 * exact)

    for shift in (0.0, 0.1, -0.05):
        x.flags.writeable = True
        x += shift
        x.flags.writeable = False
        check(0.5)
        check(0.7)
        x.flags.writeable = True
        check(0.3)


def test_manufactured_read_only_view_is_not_a_key():
    """A read-only view does not own its data, which its writeable base can
    change under it, so source and exact compute its factors afresh."""
    prob = manufactured_problem(0.5)
    base = np.linspace(0.0, PI, 9)
    x = base[1:]
    x.flags.writeable = False
    for shift in (0.0, 0.1, -0.05):
        base += shift
        source, exact, scale = manufactured_fields(x, 0.5, 0.5)
        assert np.all(np.abs(prob.source(x, 0.5, None) - source) <= 1e-13 * scale)
        assert np.all(np.abs(prob.exact(x, 0.5) - exact) <= 1e-13 * exact)


@pytest.mark.parametrize("args", [
    (0.0, 1.0, 2.5), (0.0, 1.0, 3.0), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
    (0.0, math.inf, 4), (-math.inf, 1.0, 4), (math.nan, 1.0, 4),
], ids=["cells-2.5", "cells-3.0", "cells-nan", "cells-inf", "hi-inf", "lo-inf", "lo-nan"])
def test_spacegrid_validates_its_fields(args):
    """The cell count is an integer >= 2 and the ends are finite, checked
    where the grid is made, not later in points() or solve."""
    with pytest.raises(ValueError, match="integer >= 2|finite ends"):
        SpaceGrid(*args)


def test_spacegrid_from_spacing():
    sg = SpaceGrid.from_spacing(0.0, PI, 1e-3)
    assert sg.n_cells == 3142
    np.testing.assert_allclose(sg.h, PI / 3142, rtol=1e-15)
    with pytest.raises(ValueError):
        SpaceGrid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        SpaceGrid(0.0, 1.0, 1)
    assert SpaceGrid(0.0, 1.0, np.int64(4)).points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    # not clamped to a 2-cell grid: too wide a spacing rounds below 2 cells,
    # and one so small that the cell count overflows is no grid either
    for h in (0.0, -1e-3, math.nan, 10.0, math.inf, 1e-320):
        with pytest.raises(ValueError):
            SpaceGrid.from_spacing(0.0, PI, h)

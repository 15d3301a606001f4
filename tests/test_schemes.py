import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccaputo.property_suite import truncation_bound
from fraccaputo.quadrature import ConstructionError
from fraccaputo.schemes import (
    DirectHistory,
    FastHistory,
    TimeGrid,
    caputo_reference,
    fidr_step,
    fir_step,
    gl_coefficients,
    gl_step,
    kernel_order,
    l1_step,
    l1_weights,
    mode_step_coeffs,
    new_history,
    phi,
)
from fraccaputo.soe import SoEApproximation, SoEParams, build_soe

from oracles import caputo_graded_trapezoid, fast_rule_values, fidr_expanded_weights

# graded-trapezoid value of the order-0.3 derivative of sin at t = 0.7
CAPUTO_SIN_03_07 = 0.768404715046512

TIGHT = SoEParams.from_ladder(0, 14, 8, 25)   # kernel bounds far below 1e-12


def run_scheme(scheme, alpha, u, dt, soe=None, p=None):
    state = new_history(scheme, alpha, dt, u[0],
                        n_modes=soe.n_modes if soe is not None else 0)
    vals = np.empty(len(u) - 1)
    for n in range(1, len(u)):
        if scheme == "FIR":
            vals[n - 1], state = fir_step(state, soe, u[n])
        elif scheme == "FIDR":
            vals[n - 1], state = fidr_step(state, soe, u[n])
        elif scheme == "GL":
            vals[n - 1], state = gl_step(state, u[n], p)
        else:   # the L1 evaluator, stepped through its known/push split
            vals[n - 1] = state.sigma * u[n] + state.known()
            state.push(u[n])
    return vals


def l1_all(alpha, u, dt):
    w = l1_weights(alpha, len(u))
    return np.array([l1_step(w, u[: n + 1], dt) for n in range(1, len(u))])


# --- coefficient helpers -----------------------------------------------------

def test_stable_coefficients_match_definitions():
    x = np.array([1e-4, 0.4999, 0.5001, 1.0, 30.0])
    np.testing.assert_allclose(phi(x), (1.0 - np.exp(-x)) / x, rtol=1e-11)
    # below ~1e-6 the naive form cancels catastrophically; check the series
    tiny = np.array([1e-12, 1e-8])
    np.testing.assert_allclose(phi(tiny), 1.0 - tiny / 2.0, rtol=1e-13)
    # fir's gains on u^n and u^{n-1}, read from its block decay * dt * [g1, g2]
    # at dt = 1: the closed forms where they do not cancel, and their
    # first-order series where the closed forms would have no digit left
    x = np.array([0.5, 0.5001, 1.0, 30.0, 100.0])
    decay, coeffs = mode_step_coeffs("fir", x, 1.0)
    closed = [(np.exp(-x) - 1.0 + x) / x ** 2, (1.0 - np.exp(-x) - x * np.exp(-x)) / x ** 2]
    np.testing.assert_allclose(coeffs, decay * np.array(closed), rtol=1e-13)
    x = np.array([0.0, 1e-12, 1e-8])
    decay, coeffs = mode_step_coeffs("fir", x, 1.0)
    np.testing.assert_allclose(coeffs, decay * np.array([0.5 - x / 6.0, 0.5 - x / 3.0]),
                               rtol=1e-15)


# --- direct rule -------------------------------------------------------------

def test_l1_weights_invariants():
    """The Caputo-form table w, stored reversed, has cumsum(w) = a, the L1
    table a_0 = 1 > a_1 > ... > 0: so w_0 = 1 and every later weight is
    negative."""
    w = l1_weights(0.4, 50).rev[::-1]
    a = np.cumsum(w)
    assert len(w) == 50
    assert w[0] == 1.0
    assert np.all(w[1:] < 0)
    assert np.all(np.diff(a) < 0)
    assert np.all(a > 0)


def test_l1_constant_is_zero():
    c, alpha, dt = 3.7, 0.3, 0.05
    w = l1_weights(alpha, 40)
    for n in (1, 5, 37):
        val = l1_step(w, np.full(n + 1, c), dt)
        assert abs(val) <= 1e-13 * abs(c) * dt ** -alpha


def test_l1_exact_for_linear_path():
    alpha, dt, n = 0.5, 0.1, 10
    u = dt * np.arange(n + 1)
    val = l1_step(l1_weights(alpha, n), u, dt)
    np.testing.assert_allclose(val, 1.0 / math.gamma(1.5), rtol=1e-12)


def test_l1_quadratic_within_consistency_bound():
    alpha, dt, n = 0.3, 1e-3, 1000
    t = dt * np.arange(n + 1)
    val = l1_step(l1_weights(alpha, n), t ** 2, dt)
    exact = math.gamma(3.0) / math.gamma(3.0 - alpha) * t[n] ** (2.0 - alpha)
    assert abs(val - exact) <= truncation_bound("L1", alpha, dt, 2.0)


def test_l1_requires_one_step():
    with pytest.raises(ValueError):
        l1_step(l1_weights(0.5, 10), [1.0], 0.1)


def test_l1_step_rejects_unfit_table():
    with pytest.raises(ValueError):
        l1_step(l1_weights(0.5, 5), np.zeros(12), 0.1)   # path longer than the table
    with pytest.raises(ValueError):
        l1_step(new_history("gl", 0.5, 1.0, 0.0), np.zeros(2), 0.1)


# --- fast rules --------------------------------------------------------------

def test_fast_rules_zero_path():
    soe = build_soe(1.3, SoEParams.from_ladder(0, 10, 4, 4), 1e-2, 1.0)
    u = np.zeros(20)
    vals = run_scheme("FIR", 0.3, u, 1e-2, soe=soe)
    np.testing.assert_array_equal(vals, 0.0)
    soe0 = build_soe(0.3, SoEParams.from_ladder(0, 10, 4, 4), 1e-2, 1.0)
    vals = run_scheme("FIDR", 0.3, u, 1e-2, soe=soe0)
    np.testing.assert_array_equal(vals, 0.0)


@pytest.mark.parametrize("scheme", ["fidr", "gl", "l1", "fir"])
def test_constant_path_gives_zero(scheme):
    """u = c with u0 = c != 0 has Caputo derivative 0 at every step: exactly
    for fidr (a rank update against the increment) and gl (differences of
    u - u0), to rounding for l1, and within the kernel budget
    alpha*c*eps*t_{n-1}/Gamma(1-alpha) for fir."""
    alpha, dt, c = 0.4, 1e-2, 2.5
    u = np.full(15, c)
    rounding = 1e-13 * c * dt ** -alpha
    if scheme == "gl":
        vals, tol = run_scheme("GL", alpha, u, dt, p=alpha), 0.0
    elif scheme == "l1":
        vals, tol = l1_all(alpha, u, dt), rounding
    else:
        soe = build_soe(alpha + 1.0 if scheme == "fir" else alpha, TIGHT, dt, 1.0)
        vals = run_scheme(scheme.upper(), alpha, u, dt, soe=soe)
        t_prev = dt * np.arange(len(vals))
        tol = (0.0 if scheme == "fidr"
               else alpha * c * soe.bound * t_prev / math.gamma(1.0 - alpha) + rounding)
    assert np.all(np.abs(vals) <= tol)


@pytest.mark.parametrize("scheme", ["fir", "fidr"])
def test_field_rank_update_matches_streams(scheme):
    """A field and each of its points as a stream go through push's one rank
    update; both match a plain recurrence written from the formulas."""
    alpha, dt = 0.3, 5e-3   # dt * max(node) <= 8, where the oracle's gains hold
    paths = np.random.default_rng(11).normal(size=(30, 7))  # (steps, points)
    soe = build_soe(kernel_order(scheme, alpha), SoEParams(0, 10, 4, 4), dt, 1.0)
    field = new_history(scheme, alpha, dt, paths[0], n_modes=soe.n_modes)
    field.use_kernel(soe)
    fields = np.array([field.step(u) for u in paths[1:]])
    streams = np.column_stack([run_scheme(scheme.upper(), alpha, paths[:, j], dt, soe=soe)
                               for j in range(paths.shape[1])])
    want = fast_rule_values(scheme, paths, dt, alpha, soe.nodes, soe.weights)
    for got in (fields, streams):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("points", [2, 50])
def test_fidr_constant_field_keeps_modes_zero(points):
    """fidr's rank update is against the increment u^n - u^{n-1}, so a
    nonzero constant field leaves every mode, and the history term, exactly 0."""
    alpha, dt, c = 0.4, 1e-2, 2.5
    soe = build_soe(alpha, TIGHT, dt, 1.0)
    field = new_history("fidr", alpha, dt, np.full(points, c), n_modes=soe.n_modes)
    field.use_kernel(soe)
    for _ in range(20):
        np.testing.assert_array_equal(field.step(np.full(points, c)), 0.0)
    np.testing.assert_array_equal(field.modes, 0.0)


def test_l1_evaluator_matches_l1_step():
    """The streaming L1 evaluator, whose history array starts small and
    doubles, gives the values of l1_step on the whole stored path."""
    rng = np.random.default_rng(3)
    alpha, dt = 0.35, 0.02
    u = rng.normal(size=40)
    np.testing.assert_allclose(run_scheme("L1", alpha, u, dt), l1_all(alpha, u, dt),
                               rtol=1e-12, atol=1e-12)


def test_first_step_matches_direct_rule():
    rng = np.random.default_rng(5)
    u0, u1 = rng.normal(size=2)
    alpha, dt = 0.25, 0.02
    direct = l1_step(l1_weights(alpha, 2), [u0, u1], dt)
    soe = build_soe(1.0 + alpha, SoEParams.from_ladder(0, 10, 4, 4), dt, 1.0)
    state = new_history("FIR", alpha, dt, u0, n_modes=soe.n_modes)
    val, state = fir_step(state, soe, u1)
    np.testing.assert_allclose(val, direct, rtol=1e-13)
    soe0 = build_soe(alpha, SoEParams.from_ladder(0, 10, 4, 4), dt, 1.0)
    state0 = new_history("FIDR", alpha, dt, u0, n_modes=soe0.n_modes)
    val0, _ = fidr_step(state0, soe0, u1)
    np.testing.assert_allclose(val0, direct, rtol=1e-13)


@pytest.mark.parametrize("scheme", ["l1", "gl", "fir", "fidr"])
def test_known_is_a_pure_read(scheme):
    """From step 3 on, two known() calls in one step agree, and the stream
    read that way goes on matching an untouched twin bit for bit."""
    alpha, dt = 0.4, 1e-2
    u = np.random.default_rng(9).normal(size=12)
    soe = (build_soe(kernel_order(scheme, alpha), SoEParams.from_ladder(0, 10, 4, 4), dt, 1.0)
           if scheme in ("fir", "fidr") else None)
    read, twin = (new_history(scheme, alpha, dt, u[0], n_modes=soe.n_modes if soe else 0)
                  for _ in range(2))
    for ev in (read, twin):
        if soe is not None:
            ev.use_kernel(soe)
    for n in range(1, len(u)):
        if n >= 3:
            np.testing.assert_array_equal(read.known(), read.known())
        assert read.step(u[n]) == twin.step(u[n])


def test_fir_tracks_direct_within_kernel_budget():
    """The gap to the direct rule is attributable to kernel compression
    alone: |fir - l1| <= C * alpha * eps with a small measured C."""
    alpha, dt, n = 0.1, 1e-2, 50
    u = dt * np.arange(n + 1)
    soe = build_soe(1.0 + alpha, SoEParams.from_ladder(3, 13, 6, 8), dt, 1.0)
    gap = np.max(np.abs(run_scheme("FIR", alpha, u, dt, soe=soe) - l1_all(alpha, u, dt)))
    assert gap <= 10.0 * alpha * soe.bound


def test_fidr_tracks_direct_within_kernel_budget():
    alpha, dt, n = 0.5, 0.1, 10
    u = dt * np.arange(n + 1)
    soe = build_soe(alpha, TIGHT, dt, 1.0)
    assert soe.bound <= 1e-10
    gap = np.max(np.abs(run_scheme("FIDR", alpha, u, dt, soe=soe) - l1_all(alpha, u, dt)))
    # kernel-induced drift: eps0 * t_{n-1} * max|u'| / Gamma(1-alpha)
    assert gap <= soe.bound * (n - 1) * dt * 1.0 / math.gamma(1.0 - alpha) + 1e-14


def test_fidr_expanded_coefficients_cross_check():
    """Recurrence stepping and the unrolled coefficient form are two
    independent paths to the same operator."""
    alpha, dt, n = 0.3, 5e-3, 60
    rng = np.random.default_rng(17)
    c = rng.normal(size=4)
    t = dt * np.arange(n + 1)
    u = c[0] + c[1] * t + c[2] * np.sin(3 * t) + c[3] * t ** 2
    soe = build_soe(alpha, SoEParams.from_ladder(0, 12, 5, 6), dt, 1.0)
    vals = run_scheme("FIDR", alpha, u, dt, soe=soe)
    g1 = math.gamma(1.0 - alpha)
    lead = 1.0 / ((1.0 - alpha) * dt ** alpha)
    for m in (2, 17, 60):
        a = fidr_expanded_weights(soe, dt, m)
        expanded = lead * u[m] + (a[1] - lead) * u[m - 1]
        expanded += sum((a[l] - a[l - 1]) * u[m - l] for l in range(2, m))
        expanded -= a[m - 1] * u[0]
        expanded /= g1
        np.testing.assert_allclose(vals[m - 1], expanded, rtol=1e-12)


def test_expanded_weights_small_rate_limit():
    soe = SoEApproximation(0.5, 1e-3, 1.0, np.array([1e-8]), np.array([1.0]), 1.0)
    a = fidr_expanded_weights(soe, 0.01, 6)
    np.testing.assert_allclose(a, 1.0, atol=1e-9)


def test_expanded_weights_strictly_decreasing():
    soe = build_soe(0.3, SoEParams.from_ladder(0, 10, 4, 4), 1e-2, 1.0)
    a = fidr_expanded_weights(soe, 1e-2, 40)
    assert np.all(np.diff(a) < 0.0)


def test_expanded_leading_weight_cap():
    """a_1 <= 1/((1-alpha) dt**alpha) whenever the kernel error is below the
    slack alpha/((1-alpha) dt**alpha)."""
    alpha, dt = 0.3, 1e-2
    soe = build_soe(alpha, SoEParams.from_ladder(0, 13, 6, 8), dt, 1.0)
    assert soe.bound <= alpha / ((1.0 - alpha) * dt ** alpha)
    a = fidr_expanded_weights(soe, dt, 2)
    assert a[1] <= 1.0 / ((1.0 - alpha) * dt ** alpha)


def test_mode_count_mismatch_rejected():
    soe = build_soe(1.3, SoEParams.from_ladder(0, 10, 4, 4), 1e-2, 1.0)
    state = new_history("FIR", 0.3, 1e-2, 0.0, n_modes=soe.n_modes + 1)
    with pytest.raises(ValueError):
        fir_step(state, soe, 1.0)
    state = new_history("FIDR", 0.3, 1e-2, 0.0, n_modes=3)
    with pytest.raises(ValueError):
        fir_step(state, soe, 1.0)   # wrong scheme tag


@pytest.mark.parametrize("scheme,beta", [("fir", 0.3), ("fidr", 1.3)])
def test_kernel_of_wrong_order_rejected(scheme, beta):
    """fir compresses t**-(1+alpha) and fidr t**-alpha; a state refuses the other."""
    soe = build_soe(beta, SoEParams.from_ladder(0, 10, 4, 4), 1e-2, 1.0)
    state = new_history(scheme, 0.3, 1e-2, 0.0, n_modes=soe.n_modes)
    with pytest.raises(ValueError):
        (fir_step if scheme == "fir" else fidr_step)(state, soe, 1.0)


# --- binomial baseline -------------------------------------------------------

def test_gl_zero_path():
    vals = run_scheme("GL", 0.5, np.zeros(10), 0.1, p=0.5)
    np.testing.assert_array_equal(vals, 0.0)


def test_gl_coefficients_integer_boundary():
    c = gl_coefficients(1.0, 6)
    np.testing.assert_allclose(c[:2], [1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(c[2:], 0.0, atol=1e-15)


def test_gl_linear_path_first_order():
    p, dt, n = 0.5, 1e-3, 1000
    u = dt * np.arange(n + 1)
    vals = run_scheme("GL", p, u, dt, p=p)
    exact = u[n] ** 0.5 / math.gamma(1.5)
    assert abs(vals[-1] - exact) <= 0.02 * exact


def test_gl_buffer_grows_per_step():
    state = new_history("GL", 0.5, 0.1, 1.0)
    np.testing.assert_array_equal(state.hist[:1], [0.0])   # stored as u - u0
    _, state = gl_step(state, 2.0, 0.5)
    _, state = gl_step(state, 3.0, 0.5)
    np.testing.assert_array_equal(state.hist[:3], [0.0, 1.0, 2.0])
    assert state.step_index == 2


def test_gl_rejects_out_of_range_order():
    state = new_history("GL", 0.5, 0.1, 0.0)
    with pytest.raises(ValueError):
        gl_step(state, 1.0, 1.0)


# --- reference values --------------------------------------------------------

def test_reference_power_rule():
    np.testing.assert_allclose(caputo_reference("power", 0.5, 1.0, sigma=1.0),
                               1.0 / math.gamma(1.5), rtol=1e-14)
    alpha, t = 0.35, 0.8
    np.testing.assert_allclose(
        caputo_reference("power", alpha, t, sigma=3.0 + alpha),
        math.gamma(4.0 + alpha) / 6.0 * t ** 3, rtol=1e-13,
    )


def test_reference_sin_vs_graded_trapezoid():
    got = caputo_reference("sin", 0.3, 0.7)
    assert abs(got - CAPUTO_SIN_03_07) < 1e-8


def test_reference_oracle_value_is_current():
    val = caputo_graded_trapezoid(np.cos, 0.3, 0.7, n=500_000)
    assert abs(val - CAPUTO_SIN_03_07) < 1e-7


def test_reference_validation():
    with pytest.raises(ValueError):
        caputo_reference("power", 0.5, -1.0, sigma=1.0)
    with pytest.raises(ValueError):
        caputo_reference("power", 0.5, 1.0)
    with pytest.raises(ValueError):
        caputo_reference("cosh", 0.5, 1.0)
    # at t = 100 the 64-node rule still misses 1e-10 by far
    with pytest.raises(ConstructionError, match="stalled"):
        caputo_reference("sin", 0.5, 100.0)


@pytest.mark.parametrize("make, name", [
    (lambda: DirectHistory("fir", 0.5, 0.1, 0.0), "fir"),
    (lambda: FastHistory("gl", 0.5, 0.1, 0.0, 4), "gl"),
    (lambda: kernel_order("l1", 0.5), "l1"),
    (lambda: new_history("rk4", 0.5, 0.1, 0.0), "rk4"),
], ids=["direct-fir", "fast-gl", "kernel-order-l1", "unknown"])
def test_rule_of_the_wrong_family_is_rejected_at_once(make, name):
    """A rule name is checked where the evaluator or kernel order is made,
    not at a later step, and the error names it."""
    with pytest.raises(ValueError, match=f"'{name}'"):
        make()


# --- cross-scheme properties -------------------------------------------------

def test_scheme_agreement_sample_paths():
    """Fast rules shadow the direct rule once the kernel is resolved to
    1e-12; light version of the full 50-path acceptance sweep."""
    rng = np.random.default_rng(23)
    dt, n = 5e-3, 120
    t = dt * np.arange(n + 1)
    for k in range(5):
        alpha = float(rng.uniform(0.1, 0.9))
        c = rng.normal(size=4)
        u = c[0] * np.sin(t) + c[1] * np.cos(2 * t) + c[2] * t + c[3] * t ** 2
        fir = build_soe(1.0 + alpha, TIGHT, dt, 1.0)
        fidr = build_soe(alpha, TIGHT, dt, 1.0)
        assert fir.bound <= 1e-12 and fidr.bound <= 1e-12
        base = l1_all(alpha, u, dt)
        scale = np.max(np.abs(base))
        assert np.max(np.abs(run_scheme("FIR", alpha, u, dt, soe=fir) - base)) <= 1e-9 * scale
        assert np.max(np.abs(run_scheme("FIDR", alpha, u, dt, soe=fidr) - base)) <= 1e-9 * scale


# 0, or far enough from 0 that a * u stays clear of subnormal numbers,
# whose rounding is absolute rather than relative
COEFF = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scheme=st.sampled_from(["l1", "gl", "fir", "fidr"]), alpha=st.floats(0.01, 0.99),
       log_dt=st.floats(-3.0, -1.0), n=st.integers(2, 80), seed=st.integers(0, 2 ** 32 - 1),
       a=COEFF, b=COEFF, complex_samples=st.booleans())
def test_linearity_of_all_schemes(scheme, alpha, log_dt, n, seed, a, b, complex_samples):
    """D(a u + b v) = a Du + b Dv for every streamed rule, on real samples and,
    for l1 and gl (which keep the samples' dtype), complex ones with an
    imaginary a, up to a rounding slack of sigma * (|a| |u|_inf + |b| |v|_inf)."""
    dt = 10.0 ** log_dt
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=(2, 1))
    u, v = rng.normal(size=(2, n + 1)) * scale
    if complex_samples and scheme in ("l1", "gl"):
        u, v = (u, v) + 1j * rng.normal(size=(2, n + 1)) * scale
        a = 1j * a
    soe = None
    if scheme in ("fir", "fidr"):
        soe = build_soe(kernel_order(scheme, alpha), SoEParams.from_ladder(0, 10, 4, 4),
                        dt, n * dt)

    def stream(path):
        ev = new_history(scheme, alpha, dt, path[0], n_modes=soe.n_modes if soe else 0)
        if soe is not None:
            ev.use_kernel(soe)
        return np.array([ev.step(x) for x in path[1:]]), ev.sigma

    lhs, sigma = stream(a * u + b * v)
    rhs = a * stream(u)[0] + b * stream(v)[0]
    slack = 1e-13 * sigma * (abs(a) * np.max(np.abs(u)) + abs(b) * np.max(np.abs(v)))
    assert np.all(np.abs(lhs - rhs) <= slack)


def test_timegrid_contract():
    g = TimeGrid(0.1, 10)
    assert abs(g.horizon - 1.0) < 1e-12
    for dt in (-0.1, 0.0, math.nan):
        with pytest.raises(ValueError):
            TimeGrid(dt, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 0)


def test_history_state_validation():
    with pytest.raises(ValueError):
        new_history("bogus", 0.5, 0.1, 0.0)
    for scheme in ("l1", "gl", "fir", "fidr"):   # samples are scalars or 1-D fields
        with pytest.raises(ValueError):
            new_history(scheme, 0.5, 0.1, np.zeros((2, 3)), n_modes=4)


@pytest.mark.parametrize("scheme", ["fir", "fidr"])
def test_fast_rules_reject_complex_samples(scheme):
    """The fast rules' modes are real: a complex u^0 or sample is a
    ValueError, not a value with its imaginary part dropped."""
    soe = build_soe(kernel_order(scheme, 0.5), SoEParams(3, 10, 4, 3), 0.01, 1.0)
    with pytest.raises(ValueError, match="real samples"):
        new_history(scheme, 0.5, 0.01, np.complex128(1 + 1j), n_modes=soe.n_modes)
    state = new_history(scheme, 0.5, 0.01, 1.0, n_modes=soe.n_modes)
    step = fir_step if scheme == "fir" else fidr_step
    for sample in (np.complex128(2 + 2j), 2 + 2j, np.array([1.0, 2j])):
        with pytest.raises(ValueError, match="real samples"):
            step(state, soe, sample)
    assert state.step_index == 0
    step(state, soe, 2.0)
    assert state.step_index == 1

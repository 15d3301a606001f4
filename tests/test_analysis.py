"""The error analysis: the energy-estimate constants and truncation bound
of ``property_suite``, and the rate fit that the acceptance criteria use."""
import math

import numpy as np
import pytest

from fraccaputo.pde import manufactured_problem
from fraccaputo.property_suite import theorem_constants, truncation_bound
from fraccaputo.schemes import caputo_reference, l1_step, l1_weights

from oracles import fit_rate


def test_fit_rate_recovers_exact_slopes():
    dts = [0.1, 0.05, 0.025, 0.0125]
    slope, _, _ = fit_rate([(dt, dt) for dt in dts])
    assert abs(slope - 1.0) < 1e-12
    slope, _, _ = fit_rate([(dt, dt ** 2) for dt in dts])
    assert abs(slope - 2.0) < 1e-12


def test_fit_rate_scale_invariance():
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = [3.0 * dt ** 1.4 for dt in dts]
    base_slope, base_intercept, _ = fit_rate(list(zip(dts, errs)))
    for scale in (1e-3, 1.0, 1e3):
        slope, intercept, _ = fit_rate([(dt, scale * e) for dt, e in zip(dts, errs)])
        assert abs(slope - base_slope) < 1e-10
        np.testing.assert_allclose(intercept, base_intercept + math.log(scale), rtol=1e-10)


def test_fit_rate_rejects_nonpositive_errors():
    slope, _, rejected = fit_rate([(0.1, 0.1), (0.05, 0.05), (0.025, 0.025), (0.0125, -1.0)])
    assert rejected == ((0.0125, -1.0),)
    assert abs(slope - 1.0) < 1e-12
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0), (0.05, 0.5)])


def test_theorem_constants_vanishing_kernel_error():
    alpha, t_n = 0.3, 1.0
    mu, rho = theorem_constants(alpha, t_n, 0.1, 0.0, "fir")
    np.testing.assert_allclose(mu, t_n ** -alpha / math.gamma(1.0 - alpha), rtol=1e-14)
    np.testing.assert_allclose(rho, t_n ** (1.0 - alpha) / math.gamma(2.0 - alpha), rtol=1e-14)
    assert mu > 0
    mu, _ = theorem_constants(alpha, t_n, 0.1, 0.0, "fidr")
    np.testing.assert_allclose(mu, t_n ** -alpha / math.gamma(1.0 - alpha), rtol=1e-14)
    assert mu > 0
    with pytest.raises(ValueError):
        theorem_constants(alpha, t_n, 0.1, 0.0, "FIDR")   # one spelling per rule


def test_theorem_constants_fir_plug_in():
    mu, _ = theorem_constants(0.1, 1.0, 0.01, 0.1, "fir")
    np.testing.assert_allclose(mu, (1.0 - 2 * 0.1 * 0.1 * 0.99) / math.gamma(0.9), rtol=1e-14)
    assert mu > 0


def test_theorem_constants_inadmissible_flag():
    # eps above t_n**-alpha makes the leading constant negative
    mu, _ = theorem_constants(0.5, 1.0, 0.01, 5.0, "fidr")
    assert mu < 0
    with pytest.raises(ValueError):
        theorem_constants(0.5, 1.0, 0.1, 0.0, "L2")
    # an order outside (0, 1) would give meaningless constants, such as
    # (-0.282, -3.122) for fidr at 1.5
    for alpha in (0.0, 1.0, 1.5, float("nan")):
        for variant in ("fir", "fidr"):
            with pytest.raises(ValueError, match="order"):
                theorem_constants(alpha, 1.0, 0.1, 0.0, variant)
    # a step that is not positive and finite (dt = -0.1 would give a complex
    # rho), or a time t_n < dt, whose t_{n-1} is negative (t_n = 0 would
    # divide by zero)
    for t_n, dt in ((1.0, -0.1), (1.0, 0.0), (1.0, math.nan), (0.0, 0.1), (0.05, 0.1),
                    (math.nan, 0.1)):
        for variant in ("fir", "fidr"):
            with pytest.raises(ValueError, match="dt"):
                theorem_constants(0.5, t_n, dt, 0.0, variant)


def test_truncation_bound_plug_in():
    alpha, dt = 0.5, 0.1
    want = (0.1 ** 1.5 / math.gamma(1.5)) * (
        0.5 / 12.0 + 2.0 ** 1.5 / 1.5 - (1.0 + 2.0 ** -0.5)
    ) * 2.0
    np.testing.assert_allclose(truncation_bound("l1", alpha, dt, 2.0), want, rtol=1e-14)


def test_truncation_bound_variants_agree_without_kernel_error():
    b_l1 = truncation_bound("l1", 0.3, 0.01, 1.5)
    b_f = truncation_bound("fidr", 0.3, 0.01, 1.5, max_u1=2.0, t_prev=0.99, eps0=0.0)
    assert b_l1 == b_f
    with pytest.raises(ValueError):
        truncation_bound("L1", 0.3, 0.01, 1.5)   # one spelling per rule
    # a step that is not positive and finite (dt = -0.1 would give a complex bound)
    for dt in (-0.1, 0.0, math.nan, math.inf):
        for variant in ("l1", "fidr"):
            with pytest.raises(ValueError, match="positive and finite"):
                truncation_bound(variant, 0.3, dt, 1.5)
    assert truncation_bound("fidr", 0.3, 0.01, 1.5, 2.0, 0.99, 1e-3) > b_l1


def test_truncation_bound_covers_manufactured_time_slices():
    """Direct-rule residual on u(x_i, .) stays under the bound fed with the
    analytic envelope |u_tt| <= (3+a)(2+a) t**(1+a) x**4 (pi-x)**4 e**-x."""
    alpha, dt = 0.3, 1e-2
    prob = manufactured_problem(alpha)
    n_max = 100
    t = dt * np.arange(n_max + 1)
    w = l1_weights(alpha, n_max)
    for x in (0.7, math.pi / 2.0, 2.9):
        g = x ** 4 * (math.pi - x) ** 4
        u = g * (math.exp(-x) * t ** (3.0 + alpha) + 1.0)
        for n in (1, 7, 33, 100):
            val = l1_step(w, u[: n + 1], dt)
            ref = g * math.exp(-x) * caputo_reference("power", alpha, t[n],
                                                      sigma=3.0 + alpha)
            max_u2 = (3.0 + alpha) * (2.0 + alpha) * t[n] ** (1.0 + alpha) * g * math.exp(-x)
            assert abs(val - ref) <= truncation_bound("l1", alpha, dt, max_u2)


def test_truncation_bound_vanishes_with_dt():
    dts = [0.1 * 2.0 ** -k for k in range(8)]
    vals = [truncation_bound("l1", 0.4, dt, 1.0) for dt in dts]
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-4

    with pytest.raises(ValueError):
        truncation_bound("l1", 1.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        truncation_bound("gl", 0.5, 0.1, 1.0)

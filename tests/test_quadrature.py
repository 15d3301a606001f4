import math

import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal

from fraccaputo.quadrature import (
    ConstructionError,
    _jacobi,
    _legendre,
    gauss_jacobi_power,
    gauss_legendre,
)

from oracles import adaptive_simpson, singular_power_integral

# oracle values, frozen from the reference integrators in oracles.py
EXP_POW_1_2 = 0.24038644627120975        # adaptive_simpson(e^-s s^0.1, 1, 2, 1e-14)
EXP_SING_0_8 = 12.223749003906054        # singular_power_integral(e^-0.01s, -0.9, 8)


def test_legendre_two_point_analytic():
    rule = gauss_legendre(2, -1.0, 1.0)
    np.testing.assert_allclose(rule.nodes, [-0.5773502691896258, 0.5773502691896258],
                               atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_canonical_legendre_rule_is_cached_read_only():
    """Each size's rule on [-1, 1] is solved once and shared: its arrays
    cannot be written, and the rules built from it are the caller's own."""
    x, w = _legendre(6)
    assert _legendre(6)[0] is x
    for shared in (x, w):
        with pytest.raises(ValueError):
            shared[0] = 0.0
    rule = gauss_legendre(6, -1.0, 1.0)
    np.testing.assert_array_equal(rule.nodes, x)
    rule.nodes[0] = 0.0
    assert x[0] != 0.0


def test_legendre_on_array_intervals_equals_scalar_calls():
    """An array of intervals gives one row per interval, lo.shape + (n,),
    each row equal bit for bit to that interval's scalar call."""
    lo = np.array([[0.25, 1.0, -3.0], [2.0 ** -40, 7.5, 1e6]])
    hi = lo + np.array([[0.25, 1.0, 0.5], [2.0 ** -40, 0.1, 3e6]])
    rule = gauss_legendre(5, lo, hi)
    assert rule.nodes.shape == rule.weights.shape == (2, 3, 5)
    for k in np.ndindex(lo.shape):
        one = gauss_legendre(5, float(lo[k]), float(hi[k]))
        np.testing.assert_array_equal(rule.nodes[k], one.nodes)
        np.testing.assert_array_equal(rule.weights[k], one.weights)
    ladder = gauss_legendre(3, [1.0, 2.0], 4.0)   # lists broadcast too
    np.testing.assert_array_equal(ladder.nodes[1], gauss_legendre(3, 2.0, 4.0).nodes)


@pytest.mark.parametrize("bad_hi", [2.0, 1.5, math.nan], ids=["empty", "reversed", "nan"])
def test_array_call_with_one_empty_interval_is_rejected(bad_hi):
    lo = np.array([1.0, 2.0, 4.0])
    hi = np.array([2.0, bad_hi, 8.0])
    with pytest.raises(ValueError, match="at interval 1"):
        gauss_legendre(4, lo, hi)


def test_array_rule_is_checked_per_interval():
    """Each of the four checks holds row by row: one bad row of otherwise
    valid rules is a ConstructionError."""
    from fraccaputo.quadrature import QuadRule
    good = gauss_legendre(3, np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    lo, hi = good.interval
    for row, nodes, weights in [
        (1, [2.9, 2.5, 3.5], None),            # not increasing
        (1, [1.5, 2.5, 3.5], None),            # escapes [2, 4]
        (0, None, [0.5, -0.1, 0.6]),           # non-positive weight
        (0, None, [0.3, 0.4, 0.3 + 1e-9]),     # misses the moment 1 by 1e-9
    ]:
        n, w = good.nodes.copy(), good.weights.copy()
        if nodes is not None:
            n[row] = nodes
        if weights is not None:
            w[row] = weights
        with pytest.raises(ConstructionError):
            QuadRule(n, w, (lo, hi), 0.0)
    QuadRule(good.nodes, good.weights, (lo, hi), 0.0)


def uncached_jacobi_power(n, gamma, a):
    """Golub-Welsch for the weight s**gamma on [0, a], solved afresh: the
    monic Jacobi recurrence on [-1, 1] mapped by s = a (1 + x) / 2."""
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = gamma / (gamma + 2.0)
    diag[1:] = gamma * gamma / ((2.0 * k + gamma) * (2.0 * k + gamma + 2.0))
    off = 2.0 * k * (k + gamma) / ((2.0 * k + gamma) * np.sqrt((2.0 * k + gamma) ** 2 - 1.0))
    x, vec = eigh_tridiagonal(diag, off)
    return a * (1.0 + x) / 2.0, a ** (gamma + 1.0) / (gamma + 1.0) * vec[0] ** 2


def test_jacobi_rule_is_cached_read_only():
    """Each (n, gamma) rule on [-1, 1] is solved once and shared: its arrays
    cannot be written, the rules mapped from it are the caller's own, and
    they equal a rule solved afresh bit for bit, whatever a."""
    x, v0sq = _jacobi(6, -0.3)
    assert _jacobi(6, -0.3)[0] is x
    for shared in (x, v0sq):
        with pytest.raises(ValueError):
            shared[0] = 0.0
    kept = x.copy(), v0sq.copy()
    rule = gauss_jacobi_power(6, -0.3, 2.0)
    rule.nodes[:] = rule.weights[:] = 0.0
    np.testing.assert_array_equal((x, v0sq), kept)
    for n, gamma, a in ((1, 0.5, 1.0), (6, -0.3, 2.0), (6, -0.3, 1e-3), (16, -0.9, 7.5),
                        (64, 0.2, 0.125)):
        rule = gauss_jacobi_power(n, gamma, a)
        nodes, weights = uncached_jacobi_power(n, gamma, a)
        np.testing.assert_array_equal(rule.nodes, nodes)
        np.testing.assert_array_equal(rule.weights, weights)


def test_legendre_cubic_exact():
    rule = gauss_legendre(2, 0.0, 1.0)
    assert abs(np.sum(rule.weights * rule.nodes ** 3) - 0.25) < 1e-14


def test_legendre_matches_adaptive_simpson():
    rule = gauss_legendre(8, 1.0, 2.0)
    s = rule.nodes
    val = np.sum(rule.weights * (np.exp(-s) * s ** 0.1))
    assert abs(val - EXP_POW_1_2) < 1e-12 * EXP_POW_1_2


def test_legendre_oracle_value_is_current():
    # guards the frozen constant itself
    val = adaptive_simpson(lambda s: math.exp(-s) * s ** 0.1, 1.0, 2.0)
    assert abs(val - EXP_POW_1_2) < 1e-13


def test_power_rule_one_point_forced_by_moments():
    alpha, a = 0.3, 2.5
    rule = gauss_jacobi_power(1, alpha - 1.0, a)
    np.testing.assert_allclose(rule.nodes, [a * alpha / (alpha + 1.0)], rtol=1e-14)
    np.testing.assert_allclose(rule.weights, [a ** alpha / alpha], rtol=1e-14)


def test_power_rule_integrates_constants():
    rule = gauss_jacobi_power(3, 0.1 - 1.0, 8.0)
    np.testing.assert_allclose(np.sum(rule.weights), 8.0 ** 0.1 / 0.1, rtol=1e-12)


def test_power_rule_matches_singular_oracle():
    rule = gauss_jacobi_power(3, -0.9, 8.0)
    val = np.sum(rule.weights * np.exp(-0.01 * rule.nodes))
    assert abs(val - EXP_SING_0_8) < 1e-10 * EXP_SING_0_8


def test_power_rule_oracle_value_is_current():
    val = singular_power_integral(lambda s: math.exp(-0.01 * s), -0.9, 8.0)
    assert abs(val - EXP_SING_0_8) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_legendre_polynomial_exactness(n):
    """Exact on 20 random polynomials of degree <= 2n-1."""
    rng = np.random.default_rng(1000 + n)
    lo, hi = sorted(rng.uniform(-3.0, 5.0, size=2))
    if hi - lo < 0.1:
        hi = lo + 1.0
    rule = gauss_legendre(n, lo, hi)
    for _ in range(20):
        deg = int(rng.integers(0, 2 * n))
        c = rng.normal(size=deg + 1)
        exact = sum(ci * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, ci in enumerate(c))
        got = np.sum(rule.weights * np.polynomial.polynomial.polyval(rule.nodes, c))
        assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


@pytest.mark.parametrize("n,gamma", [(1, -0.9), (2, 0.5), (4, -0.5), (8, 0.9), (16, -0.1)])
def test_power_rule_polynomial_exactness(n, gamma):
    rng = np.random.default_rng(2000 + n)
    a = float(rng.uniform(0.5, 10.0))
    rule = gauss_jacobi_power(n, gamma, a)
    for _ in range(20):
        deg = int(rng.integers(0, 2 * n))
        c = rng.normal(size=deg + 1)
        exact = sum(ci * a ** (k + gamma + 1) / (k + gamma + 1) for k, ci in enumerate(c))
        got = np.sum(rule.weights * np.polynomial.polynomial.polyval(rule.nodes, c))
        assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_legendre_symmetry(n):
    rule = gauss_legendre(n, 0.3, 2.7)
    mid = 0.5 * (0.3 + 2.7)
    np.testing.assert_allclose(rule.nodes + rule.nodes[::-1], 2.0 * mid, atol=1e-13)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=1e-13)


def test_power_rule_rescaling():
    """Rule on [0, a] is the unit-interval rule with nodes scaled by a and
    weights by a**(gamma+1)."""
    n, gamma, a = 5, -0.7, 3.7
    unit = gauss_jacobi_power(n, gamma, 1.0)
    scaled = gauss_jacobi_power(n, gamma, a)
    np.testing.assert_allclose(scaled.nodes, a * unit.nodes, rtol=1e-12)
    np.testing.assert_allclose(scaled.weights, a ** (gamma + 1.0) * unit.weights, rtol=1e-12)


def test_weight_sums_match_moments():
    rule = gauss_legendre(6, -2.0, 3.0)
    np.testing.assert_allclose(np.sum(rule.weights), 5.0, rtol=1e-13)
    rule = gauss_jacobi_power(6, 0.25, 2.0)
    np.testing.assert_allclose(np.sum(rule.weights), 2.0 ** 1.25 / 1.25, rtol=1e-13)


def test_nodes_inside_open_interval():
    rule = gauss_jacobi_power(4, -0.95, 1.0)
    assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("bad_call", [
    lambda: gauss_legendre(0, 0.0, 1.0),
    lambda: gauss_legendre(3, 1.0, 1.0),
    lambda: gauss_legendre(65, 0.0, 1.0),
    lambda: gauss_jacobi_power(3, 1.0, 1.0),
    lambda: gauss_jacobi_power(3, -1.0, 1.0),
    lambda: gauss_jacobi_power(3, 1.3, 1.0),
    lambda: gauss_jacobi_power(3, 0.0, -2.0),
    # a rule size that is no integer, a float 3.0 included
    lambda: gauss_legendre(2.5, 0.0, 1.0),
    lambda: gauss_legendre(3.0, 0.0, 1.0),
    lambda: gauss_jacobi_power(2.5, 0.5, 1.0),
])
def test_domain_errors(bad_call):
    with pytest.raises(ValueError):
        bad_call()


def test_rule_invariant_violation_detected():
    from fraccaputo.quadrature import QuadRule
    with pytest.raises(ConstructionError):
        QuadRule(np.array([0.5, 0.2]), np.array([1.0, 1.0]), (0.0, 1.0), 0.0)
    with pytest.raises(ConstructionError):
        QuadRule(np.array([0.2, 0.5]), np.array([1.0, -1.0]), (0.0, 1.0), 0.0)
    for nodes in ([0.0, 0.5], [0.5, 1.0], [-0.5, 0.5], [0.5, 2.0]):
        with pytest.raises(ConstructionError, match="escape"):
            QuadRule(np.array(nodes), np.array([0.5, 0.5]), (0.0, 1.0), 0.0)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccaputo import quadrature
from fraccaputo.quadrature import ConstructionError, gauss_legendre
from fraccaputo.soe import (
    SoEApproximation,
    SoEParams,
    build_soe,
    soe_error_bound_terms,
    soe_eval,
    soe_max_error,
    tail_integral,
)

from oracles import build_soe_per_interval, soe_eval_outer

BENCH = SoEParams.from_ladder(3, 10, 4, 3)   # the 25-mode benchmark partition
SLACK = 1e-12  # relative rounding slack, the property suite's


def test_params_mode_count():
    assert BENCH.n_modes == 4 + 3 * 7 == 25
    soe = build_soe(1.1, BENCH, 1e-2, 1.0)
    assert soe.n_modes == 25 == len(soe.nodes) == len(soe.weights)


def test_params_validation():
    with pytest.raises(ValueError):
        SoEParams(a=5, b=5, n1=4, n2=3)   # empty ladder
    with pytest.raises(ValueError):
        SoEParams(a=0, b=5, n1=4, n2=0)
    with pytest.raises(ValueError):
        SoEParams(a=0, b=5, n1=-1, n2=1)


@pytest.mark.parametrize("a,b,n1,n2", [(3.5, 10, 4, 3), (3, 10.0, 4, 3), (3, 10, 4.0, 3),
                                       (3, 10, 4, 3.0), (3, 10, 4, "3"), (None, 10, 4, 3)])
def test_params_must_be_integers(a, b, n1, n2):
    """3.5 would count 23.5 modes and 4.0 a float 25.0, neither a ladder."""
    with pytest.raises(ValueError, match="must be an integer"):
        SoEParams(a, b, n1, n2)


def test_numpy_integer_params_and_samples_are_valid():
    params = SoEParams(*np.array([3, 10, 4, 3]))
    assert params.n_modes == 25
    soe = build_soe(0.5, params, 1e-2, 1.0)
    assert soe_max_error(soe, np.int64(50))[1].shape == (50, 2)


@pytest.mark.parametrize("n_samples", [2.5, 100.0, None])
def test_max_error_sample_count_must_be_an_integer(n_samples):
    soe = build_soe(0.5, BENCH, 1e-2, 1.0)
    with pytest.raises(ValueError, match="n_samples must be an integer >= 2"):
        soe_max_error(soe, n_samples)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(beta=st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.99)),
       a=st.integers(-4, 6), width=st.integers(1, 20), n1=st.integers(0, 8),
       n2=st.integers(1, 64), log_delta=st.floats(-4.0, -1.0),
       log_horizon=st.floats(-0.5, 3.0))
def test_ladder_rule_equals_per_interval_rules(beta, a, width, n1, n2, log_delta, log_horizon):
    """The one-call ladder builds the kernel of one Legendre call per
    interval bit for bit, and soe_eval's single buffer gives exp(-t s) @ w
    bit for bit on a scalar, a 0-d array, a list and an array of times."""
    params, delta, horizon = SoEParams(a, a + width, n1, n2), 10.0 ** log_delta, 10.0 ** log_horizon
    nodes, weights, bound = build_soe_per_interval(beta, params, delta, horizon)
    soe = build_soe(beta, params, delta, horizon)
    np.testing.assert_array_equal(soe.nodes, nodes)
    np.testing.assert_array_equal(soe.weights, weights)
    assert soe.bound == bound
    t = np.geomspace(delta, horizon, 7)
    for times in (float(t[3]), np.float64(t[2]), np.array(t[1]), list(t), t, t.reshape(7, 1)):
        got, want = soe_eval(soe, times), soe_eval_outer(soe, times)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)


LEGENDRE = quadrature._legendre


def scaled_weights(n):
    x, w = LEGENDRE(n)
    return x, w * (1.0 + 1e-9)


def swapped_nodes(n):
    x, w = LEGENDRE(n)
    return x[[1, 0, *range(2, n)]], w


@pytest.mark.parametrize("broken", [scaled_weights, swapped_nodes])
def test_broken_ladder_rule_is_a_construction_error(monkeypatch, broken):
    """The ladder's one rule is checked per interval: weights 1e-9 off their
    moment, or two nodes out of order, stop the kernel build."""
    monkeypatch.setattr(quadrature, "_legendre", broken)
    with pytest.raises(ConstructionError):
        build_soe(0.5, BENCH, 1e-2, 1.0)


def test_single_dyadic_interval_single_mode():
    """n1=0 with one ladder interval and n2=1 is a one-mode kernel whose
    value is the one-point rule applied to the integrand."""
    beta = 1.3
    params = SoEParams.from_ladder(0, 1, 0, 1)
    soe = build_soe(beta, params, 1e-2, 1.0)
    assert soe.n_modes == 1
    rule = gauss_legendre(1, 1.0, 2.0)
    s_mid = rule.nodes[0]
    w = rule.weights[0] * s_mid ** (beta - 1.0) / math.gamma(beta)
    t = 0.37
    np.testing.assert_allclose(soe_eval(soe, t), w * math.exp(-s_mid * t), rtol=1e-14)


def test_unit_value_within_bound():
    """At t = 1 the kernel t**-beta equals 1; the compressed value must sit
    within the certified bound of it."""
    soe = build_soe(0.1, BENCH, 1e-2, 1.0)
    assert abs(soe_eval(soe, 1.0) - 1.0) <= soe.bound


def test_eval_single_mode_arithmetic():
    soe = SoEApproximation(1.5, 1e-3, 1.0, np.array([1.0]), np.array([2.0]), 1.0)
    np.testing.assert_allclose(soe_eval(soe, 0.5), 2.0 * math.exp(-0.5), rtol=1e-15)


def test_eval_rejects_nonpositive_time():
    """A NaN is no t > 0 either, as a scalar or inside an array: a
    ValueError, not a silent nan."""
    soe = build_soe(1.1, BENCH, 1e-2, 1.0)
    for t in (0.0, math.nan, np.array([0.5, math.nan, 1.0])):
        with pytest.raises(ValueError, match="t > 0"):
            soe_eval(soe, t)


def test_eval_decay_and_positivity():
    # all decay rates >= 2**-6 here, so at t = 100 every exponential is <= e^-1
    params = SoEParams.from_ladder(-6, 2, 0, 2)
    soe = build_soe(1.5, params, 1e-2, 1.0)
    assert np.min(soe.nodes) >= 1e-2
    val = soe_eval(soe, 100.0)
    assert 0.0 < val <= soe.n_modes * np.max(soe.weights) * math.exp(-1.0)
    t = np.geomspace(1e-3, 1e3, 50)
    vals = soe_eval(soe, t)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_bound_tail_term_low_order():
    """Tail term of the low-order branch: exp(-delta*2^b)/(Gamma(b)*delta*2^((1-b)*b))."""
    alpha, delta = 0.1, 1e-2
    tail, _, _ = soe_error_bound_terms(alpha, BENCH, delta, 1.0)
    expected = math.exp(-10.24) / (math.gamma(alpha) * delta * 2.0 ** 9)
    np.testing.assert_allclose(tail, expected, rtol=1e-12)
    assert tail < 1e-6


@pytest.mark.parametrize("beta", [0.1, 0.5, 1.1, 1.5])
def test_bound_monotone_in_rule_sizes(beta):
    base = sum(soe_error_bound_terms(beta, SoEParams.from_ladder(2, 9, 3, 3), 1e-2, 1.0))
    more_n1 = sum(soe_error_bound_terms(beta, SoEParams.from_ladder(2, 9, 5, 3), 1e-2, 1.0))
    more_n2 = sum(soe_error_bound_terms(beta, SoEParams.from_ladder(2, 9, 3, 5), 1e-2, 1.0))
    assert more_n1 <= base
    assert more_n2 <= base


def test_bound_low_order_beats_high_order_at_small_delta():
    lo = sum(soe_error_bound_terms(0.1, BENCH, 1e-3, 1.0))
    hi = sum(soe_error_bound_terms(1.1, BENCH, 1e-3, 1.0))
    assert lo < hi


def test_bound_rejects_beta_one():
    with pytest.raises(ValueError):
        sum(soe_error_bound_terms(1.0, BENCH, 1e-2, 1.0))


def test_certification_random_configs():
    """Empirical max error never exceeds the closed-form bound."""
    rng = np.random.default_rng(7)
    for beta in (0.1, 0.5, 1.1, 1.5):
        for _ in range(5):
            a = int(rng.integers(-2, 4))
            b = int(rng.integers(a + 4, 14))
            n1 = int(rng.integers(2, 8))
            n2 = int(rng.integers(2, 8))
            delta = float(10.0 ** rng.uniform(-3, -1))
            horizon = float(rng.uniform(0.5, 2.0))
            params = SoEParams.from_ladder(a, b, n1, n2)
            soe = build_soe(beta, params, delta, horizon)
            max_err, _ = soe_max_error(soe, 1500)
            assert max_err <= soe.bound, (beta, a, b, n1, n2, delta, horizon)


@pytest.mark.parametrize("beta,a,b,n2", [(0.1, 5, 14, 8), (1.1, 5, 15, 13)])
def test_dropped_low_band_is_bounded(beta, a, b, n2):
    """n1 = 0 drops the band [0, 2**a]; here that band dominates the
    sampled error (1.48 and 42.5), and the bound must cover it."""
    params = SoEParams.from_ladder(a, b, 0, n2)
    soe = build_soe(beta, params, 1e-3, 1.0)
    max_err, _ = soe_max_error(soe, 2000)
    assert max_err > 1.0
    assert max_err <= soe.bound
    _, low, _ = soe_error_bound_terms(beta, params, 1e-3, 1.0)
    assert low > 0.99 * soe.bound


@settings(derandomize=True, deadline=None, max_examples=100)
@given(beta=st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.99)),
       a=st.integers(-4, 5), n1=st.integers(0, 8), n2=st.integers(1, 16),
       log_delta=st.floats(-4.0, -1.0), log_horizon=st.floats(-0.5, 3.0), data=st.data())
def test_bound_holds_over_random_partitions(beta, a, n1, n2, log_delta, log_horizon, data):
    """Sampled error <= certified bound for every partition, n1 = 0 included,
    on windows [delta, T] up to T = 1000 (the low-band rule term grows with
    T).  beta stays 0.01 away from 0, 1 and 2, where Gamma(beta) overflows
    or the power-rule exponent beta - 1 rounds out of (-1, 1)."""
    b = data.draw(st.integers(a + 1, 31), label="b")
    soe = build_soe(beta, SoEParams.from_ladder(a, b, n1, n2), 10.0 ** log_delta,
                    10.0 ** log_horizon)
    max_err, _ = soe_max_error(soe, 2000)
    assert max_err <= soe.bound * (1.0 + SLACK)


def test_refinement_doubling_legendre_nodes():
    """Doubling the per-interval rule size never hurts, provided the dropped
    tail is resolved (delta * 2**b >= 40); below that the unchanged tail
    dominates and refining the rules is immaterial."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        beta = float(rng.choice([0.1, 0.5, 1.1, 1.5]))
        a = int(rng.integers(-1, 4))
        b = int(rng.integers(12, 14))
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 6))
        delta = float(10.0 ** rng.uniform(-2, -1))
        assert delta * 2.0 ** b >= 40.0
        coarse = build_soe(beta, SoEParams.from_ladder(a, b, n1, n2), delta, 1.0)
        fine = build_soe(beta, SoEParams.from_ladder(a, b, n1, 2 * n2), delta, 1.0)
        err_c, _ = soe_max_error(coarse, 1000)
        err_f, _ = soe_max_error(fine, 1000)
        assert err_f <= err_c + 1e-12


def test_max_error_curve_contract():
    soe = build_soe(1.1, BENCH, 1e-2, 1.0)
    max_err, curve = soe_max_error(soe, 300)
    assert curve.shape == (300, 2)
    np.testing.assert_allclose(curve[0, 0], soe.delta, rtol=1e-12)
    np.testing.assert_allclose(curve[-1, 0], soe.horizon, rtol=1e-12)
    assert max_err == curve[:, 1].max()
    with pytest.raises(ValueError):
        soe_max_error(soe, 1)


def test_high_order_error_concentrates_at_delta():
    """With the ladder topping at 2**10, the dropped tail dominates near
    t = delta, so the worst sample sits at the left edge."""
    soe = build_soe(1.1, BENCH, 1e-2, 1.0)
    max_err, curve = soe_max_error(soe, 2000)
    assert np.isfinite(max_err)
    assert curve[:, 1].argmax() == 0


# --- dropped-tail sizes ----------------------------------------------------

TAIL_TABLE = {
    (-5, 5): 1.859e+01, (-6, 5): 6.339e+01, (-7, 5): 1.699e+02,
    (-8, 5): 4.052e+02, (-9, 5): 9.136e+02, (-10, 5): 2.005e+03,
    (-5, 10): 8.546e-13, (-6, 10): 1.523e-05, (-7, 10): 9.129e-02,
    (-8, 10): 1.006e+01, (-9, 10): 1.511e+02, (-10, 10): 8.414e+02,
    (-10, 15): 3.867e-11,
}


@pytest.mark.parametrize("te,pe", sorted(TAIL_TABLE))
def test_tail_integral_reference_values(te, pe):
    got = tail_integral(1.1, 2.0 ** pe, 2.0 ** te)
    want = TAIL_TABLE[(te, pe)]
    assert abs(got - want) <= 5e-4 * want


def test_tail_integral_overflow_guard():
    # t*p = 2**10 > 700: exact zero by the guard
    assert tail_integral(1.1, 2.0 ** 15, 2.0 ** -5) == 0.0
    # below the guard but under 1e-15 numerically
    assert tail_integral(1.1, 2.0 ** 15, 2.0 ** -6) < 1e-15


def test_tail_integral_blows_up_as_t_halves():
    vals = [tail_integral(1.1, 2.0 ** 10, 2.0 ** te) for te in range(-5, -11, -1)]
    assert np.all(np.diff(vals) > 0.0)


def test_tail_integral_validation():
    with pytest.raises(ValueError):
        tail_integral(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        tail_integral(1.1, -1.0, 1.0)
    # a NaN argument is refused, not returned as nan
    for args in ((math.nan, 1.0, 1.0), (1.1, math.nan, 1.0), (1.1, 1.0, math.nan)):
        with pytest.raises(ValueError):
            tail_integral(*args)


def test_build_validation():
    with pytest.raises(ValueError):
        build_soe(1.1, BENCH, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_soe(1.1, BENCH, 1.0, 0.5)
    with pytest.raises(ValueError):
        build_soe(1.0, BENCH, 1e-2, 1.0)   # bound undefined at beta = 1
    with pytest.raises(ValueError, match=r"overflows on the window \[1e\+305, 1e\+306\]"):
        build_soe(1.5, BENCH, 1e305, 1e306)   # the low-band term overflows
    with pytest.raises(ValueError, match="overflows on the window"):
        # each factor of the low-band term is finite, their product is not
        build_soe(1.5, SoEParams(664, 665, 1, 3), 1e-196, 7e-196)
    # the bound checks its own window; unchecked, a negative delta ends in a
    # TypeError and a negative or too short horizon gives finite terms
    for delta, horizon in ((-1e-3, 1.0), (0.0, 1.0), (1e-3, -1.0), (0.5, 0.1), (math.nan, 1.0)):
        for beta in (0.5, 1.5):
            with pytest.raises(ValueError, match="0 < delta < horizon"):
                soe_error_bound_terms(beta, BENCH, delta, horizon)


@pytest.mark.parametrize("build", [lambda: gauss_legendre(4, 0.0, 1.0),
                                   lambda: build_soe(0.5, BENCH, 1e-2, 1.0)],
                         ids=["QuadRule", "SoEApproximation"])
def test_array_records_compare_by_identity(build):
    """Rules and kernels hold arrays: == and hash go by identity, so two
    equal builds are distinct set members rather than an ambiguous truth
    value."""
    one, other = build(), build()
    assert one == one and one != other
    assert hash(one) == hash(one)
    assert one in {one} and other not in {one} and len({one, other}) == 2


def test_nodes_positive_increasing():
    soe = build_soe(0.5, SoEParams.from_ladder(-2, 8, 5, 4), 1e-3, 1.0)
    assert np.all(soe.nodes > 0)
    assert np.all(np.diff(soe.nodes) > 0)
    assert np.all(soe.weights > 0)


def test_mode_count_mismatch_detected():
    with pytest.raises(ConstructionError):
        SoEApproximation(1.1, 1e-2, 1.0, np.array([1.0, 2.0]), np.array([1.0]), 0.0)

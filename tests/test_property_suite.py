import numpy as np
import pytest

from fraccaputo import property_suite
from fraccaputo.property_suite import (
    fidr_coercivity_suite,
    fir_coercivity_suite,
    gl_stability_suite,
    mesh_sobolev_suite,
    run_property_suite,
    summation_by_parts_suite,
    truncation_suite,
)
from fraccaputo.quadrature import _jacobi
from fraccaputo.schemes import kernel_order
from fraccaputo.soe import SoEParams, build_soe


def test_fir_coercivity_passes():
    res = fir_coercivity_suite(seed=42)
    assert res["status"] == "pass"
    assert res["checked"] == 100 and not res["violations"]


def test_fidr_coercivity_passes():
    res = fidr_coercivity_suite(seed=42)
    assert res["status"] == "pass"
    assert res["checked"] == 100 and not res["violations"]


@pytest.mark.parametrize("suite,key", [(fidr_coercivity_suite, "eps0"),
                                       (fir_coercivity_suite, "eps")], ids=["fidr", "fir"])
def test_coercivity_inadmissible_gate(suite, key, monkeypatch):
    # a 3-mode kernel certifies eps0 = 2.92 (fidr) and eps = 59.2 (fir), both
    # too large for a positive leading constant: vacuous bound, skipped not failed
    monkeypatch.setattr(property_suite, "build_soe", lambda beta, params, delta, horizon:
                        build_soe(beta, SoEParams(0, 2, 1, 1), delta, horizon))
    res = suite(seed=1)
    assert res["status"] == "inadmissible"
    assert res["checked"] == 0
    assert res[key] > 1.0


def test_mesh_sobolev_passes():
    res = mesh_sobolev_suite(seed=42)
    assert res["status"] == "pass"
    assert res["checked"] == 300   # 100 fields x 3 thetas


def test_summation_by_parts_passes():
    res = summation_by_parts_suite(seed=42)
    assert res["status"] == "pass"


def test_truncation_suites_pass_quick():
    thin = range(1, 1001, 97)
    res = truncation_suite(step_filter=thin)
    assert res["status"] == "pass"
    res = truncation_suite(variant="FIDR", step_filter=thin)
    assert res["status"] == "pass"
    with pytest.raises(ValueError):
        truncation_suite(variant="GL")


@pytest.mark.parametrize("steps", [[-3], [1001], [2.7]], ids=["negative", "past-end", "fraction"])
def test_truncation_steps_must_be_integers_in_range(steps):
    # unchecked, -3 would index step 997, 1001 would index past the path and
    # 2.7 would check step 2
    with pytest.raises(ValueError, match="integers in 1..1000"):
        truncation_suite(step_filter=steps)


def test_gl_stability_passes():
    res = gl_stability_suite(seed=42)
    assert res["status"] == "pass"
    assert res["checked"] == 20


def test_runner_deterministic_under_seed():
    a = run_property_suite(7, quick=True)
    b = run_property_suite(7, quick=True)
    assert a == b
    assert a["all_pass"]
    c = run_property_suite(8, quick=True)
    assert c["seed"] != a["seed"]


def test_ledger_does_not_depend_on_warm_caches():
    """The Jacobi rules are cached; a ledger computed from a cold cache
    equals one computed from a warm one."""
    _jacobi.cache_clear()
    cold = run_property_suite(3, quick=True)
    assert cold == run_property_suite(3, quick=True)
    assert cold["all_pass"]


@pytest.mark.parametrize("scheme, suite", [("fir", fir_coercivity_suite),
                                           ("fidr", fidr_coercivity_suite)], ids=["fir", "fidr"])
def test_coercivity_suite_fails_on_a_wrong_rule(scheme, suite, monkeypatch):
    """A negated rule makes dt * sum (D g^k) g^k negative, so the suite must
    fail; the instances it reports are those a one-at-a-time draw makes."""
    right = property_suite._run
    monkeypatch.setattr(property_suite, "_run", lambda *a: -right(*a))
    res = suite(seed=5)
    assert res["status"] == "fail" and len(res["violations"]) >= 2
    alpha, dt = 0.3, 0.05
    soe = build_soe(kernel_order(scheme, alpha), SoEParams(0, 12, 6, 10), dt, 20 * dt)
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(100):
        g = rng.normal(size=21)
        g[0] = 2.0 * rng.normal()
        draws.append(g)
    for v in (res["violations"][0], res["violations"][-1]):
        g = draws[v["instance"]]
        lhs = dt * float(np.dot(-right(scheme, alpha, g, dt, soe), g[1:]))
        assert abs(lhs - v["lhs"]) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("variant", ["l1", "fidr"])
def test_truncation_suite_fails_on_a_wrong_rule(variant, monkeypatch):
    """A rule off by 1e-3 at every step breaks the one-step bound: at step 1
    for every order and function (t_prev = 0 leaves no kernel term, and the
    bound is below 1e-3 there), at the later steps where the bound is tight."""
    right = property_suite._run
    monkeypatch.setattr(property_suite, "_run", lambda *a: right(*a) + 1e-3)
    res = truncation_suite(variant, step_filter=[1, 500, 1000])
    assert res["status"] == "fail"
    assert res["checked"] == 18
    assert sum(v["n"] == 1 for v in res["violations"]) == 6
    assert all(v["gap"] > v["bound"] for v in res["violations"])

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

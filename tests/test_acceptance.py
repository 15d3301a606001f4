"""Acceptance gate: one test per numbered criterion, each printing a
CRITERION line with the measured numbers at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criteria 6a and 6b encode first-order-rate claims that the measured data
(and the reference tables mirrored by criteria 4 and 5) contradict; they
are kept at their stated tolerances and fail honestly rather than being
loosened.  See the assertion messages for the measured rates.
"""
import math
import time

import numpy as np
import pytest

from fraccaputo.pde import SpaceGrid, manufactured_problem, nonlinear_problem, solve
from fraccaputo.property_suite import (
    fidr_coercivity_suite,
    fir_coercivity_suite,
    gl_stability_suite,
    truncation_suite,
)
from fraccaputo.schemes import TimeGrid, fidr_step, fir_step, l1_step, l1_weights, new_history
from fraccaputo.soe import SoEParams, build_soe, soe_eval, soe_max_error, tail_integral
from oracles import fit_rate

BENCH25 = SoEParams.from_ladder(3, 10, 4, 3)
BENCH40 = SoEParams.from_ladder(3, 15, 4, 3)
TIGHT = SoEParams.from_ladder(0, 14, 8, 25)

PI = math.pi

# reference benchmark values (printed to 3-4 significant digits)
TAIL_REFERENCE = {
    (-5, 5): 1.859e+01, (-6, 5): 6.339e+01, (-7, 5): 1.699e+02,
    (-8, 5): 4.052e+02, (-9, 5): 9.136e+02, (-10, 5): 2.005e+03,
    (-5, 10): 8.546e-13, (-6, 10): 1.523e-05, (-7, 10): 9.129e-02,
    (-8, 10): 1.006e+01, (-9, 10): 1.511e+02, (-10, 10): 8.414e+02,
    (-5, 15): 0.0, (-6, 15): 0.0, (-7, 15): 0.0, (-8, 15): 0.0, (-9, 15): 0.0,
    (-10, 15): 3.867e-11,
    (-5, 20): 0.0, (-6, 20): 0.0, (-7, 20): 0.0, (-8, 20): 0.0, (-9, 20): 0.0,
    (-10, 20): 0.0,
}
TABLE2_FIDR = {1e-1: 1.94e-4, 1e-2: 4.68e-6, 1e-3: 5.83e-6}
TABLE2_FIR_BLOWUP = 2.43e-2
TABLE3 = {  # alpha -> {(scheme, n_modes): related error at dt = 1e-3}
    0.1: {("fidr", 25): 5.83e-6, ("fidr", 40): 2.39e-6,
          ("fir", 25): 2.43e-2, ("fir", 40): 2.04e-5},
    0.5: {("fidr", 25): 1.97e-4, ("fidr", 40): 5.23e-6,
          ("fir", 25): 5.49e-1, ("fir", 40): 3.13e-4},
    0.7: {("fidr", 25): 5.56e-4, ("fidr", 40): 1.63e-5,
          ("fir", 25): 7.93e-1, ("fir", 40): 6.91e-4},
}

CERT_CONFIGS = [
    (beta, a, b, n1, n2, delta, horizon)
    for beta in (0.1, 0.5, 0.9, 1.1, 1.5, 1.9)
    for (a, b, n1, n2, delta, horizon) in (
        (3, 10, 4, 3, 1e-2, 1.0),
        (0, 12, 6, 8, 1e-3, 1.0),
        (2, 12, 5, 6, 5e-3, 2.0),
    )
] + [(0.1, -2, 8, 4, 4, 5e-2, 1.0), (1.9, -2, 8, 4, 4, 5e-2, 1.0)]


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def manufactured_run(alpha, dt, scheme, params, h=1e-3, T=1.0):
    prob = manufactured_problem(alpha)
    return solve(prob, TimeGrid(dt, round(T / dt)), SpaceGrid.from_spacing(0.0, PI, h),
                 scheme, params)


@pytest.fixture(scope="module")
def table2_runs():
    runs = {}
    for scheme in ("fidr", "fir"):
        for dt in (1e-1, 1e-2, 1e-3):
            runs[(scheme, dt)] = manufactured_run(0.1, dt, scheme, BENCH25)
    return runs


@pytest.fixture(scope="module")
def table3_runs(table2_runs):
    runs = {(0.1, "fidr", 25): table2_runs[("fidr", 1e-3)].related_error,
            (0.1, "fir", 25): table2_runs[("fir", 1e-3)].related_error}
    for alpha in (0.1, 0.5, 0.7):
        for scheme in ("fidr", "fir"):
            for n, params in ((25, BENCH25), (40, BENCH40)):
                if (alpha, scheme, n) in runs:
                    continue
                runs[(alpha, scheme, n)] = manufactured_run(
                    alpha, 1e-3, scheme, params).related_error
    return runs


def test_criterion_1_tail_table():
    t0 = time.perf_counter()
    got = {(te, pe): tail_integral(1.1, 2.0 ** pe, 2.0 ** te)
           for te in range(-5, -11, -1) for pe in (5, 10, 15, 20)}
    elapsed = time.perf_counter() - t0
    bad = []
    for key, want in TAIL_REFERENCE.items():
        v = got[key]
        if want == 0.0:
            if not v < 1e-15:
                bad.append((key, v, want))
        elif abs(v - want) > 5e-4 * want:
            bad.append((key, v, want))
    ok = not bad and elapsed < 1.0
    assert report(1, ok, f"24 tail cells to 3 sig. digits in {elapsed:.3f}s; "
                         f"mismatches={bad}"), bad


def test_criterion_2_soe_certification():
    t0 = time.perf_counter()
    bad = []
    for (beta, a, b, n1, n2, delta, horizon) in CERT_CONFIGS:
        soe = build_soe(beta, SoEParams.from_ladder(a, b, n1, n2), delta, horizon)
        max_err, _ = soe_max_error(soe, 2000)
        if max_err > soe.bound:
            bad.append((beta, a, b, n1, n2, delta, horizon, max_err, soe.bound))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    assert report(2, ok, f"{len(CERT_CONFIGS)} configs certified (empirical <= bound) "
                         f"in {elapsed:.2f}s; violations={bad}"), bad


def test_criterion_3_kernel_error_ordering():
    alpha, delta, horizon = 0.1, 1e-3, 1.0
    fir = build_soe(1.0 + alpha, BENCH25, delta, horizon)
    fidr = build_soe(alpha, BENCH25, delta, horizon)
    t = np.geomspace(delta, horizon, 200)
    err_fir = alpha * np.abs(t ** -(1.0 + alpha) - soe_eval(fir, t))
    err_fidr = np.abs(t ** -alpha - soe_eval(fidr, t))
    early = t <= 0.1
    ordering = bool(np.all(err_fir[early] > err_fidr[early]))
    log_gap_at_1 = abs(math.log10(err_fir[-1] / err_fidr[-1]))
    ok = ordering and log_gap_at_1 <= 1.0
    assert report(3, ok, f"scaled high-order error above low-order error at all "
                         f"{int(early.sum())} samples t<=0.1: {ordering}; "
                         f"|log10 ratio| at t=1: {log_gap_at_1:.2f}")


def test_criterion_4_table2_reproduction(table2_runs):
    details = []
    ok = True
    for dt, want in TABLE2_FIDR.items():
        got = table2_runs[("fidr", dt)].related_error
        ok &= want / 10.0 <= got <= want * 10.0
        details.append(f"fidr@{dt:g}: {got:.2e} (ref {want:.2e})")
    fir_small = table2_runs[("fir", 1e-3)].related_error
    fidr_small = table2_runs[("fidr", 1e-3)].related_error
    ok &= TABLE2_FIR_BLOWUP / 10.0 <= fir_small <= TABLE2_FIR_BLOWUP * 10.0
    ok &= fir_small >= 1e3 * fidr_small
    # blow-up shape: fir error grows as dt shrinks below 1e-2, fidr's does not
    ok &= fir_small > table2_runs[("fir", 1e-2)].related_error
    ok &= fidr_small < table2_runs[("fidr", 1e-1)].related_error
    details.append(f"fir@1e-3: {fir_small:.2e} (ref {TABLE2_FIR_BLOWUP:.2e}), "
                   f"fir/fidr={fir_small / fidr_small:.1e} (>=1e3)")
    assert report(4, ok, "; ".join(details))


def test_criterion_4_timing_parity():
    # five fresh pairs, interleaved in alternating order and timed in process
    # CPU time; a pair's two solves run back to back, so each pair's ratio
    # sees one host speed, and the median of those ratios is compared
    cpu = {"fir": [], "fidr": []}
    for k in range(5):
        for scheme in (("fir", "fidr") if k % 2 == 0 else ("fidr", "fir")):
            c0 = time.process_time()
            manufactured_run(0.1, 1e-3, scheme, BENCH25)
            cpu[scheme].append(time.process_time() - c0)
    w_fir, w_fidr = np.median(cpu["fir"]), np.median(cpu["fidr"])
    pair_ratio = float(np.median(np.divide(cpu["fir"], cpu["fidr"])))
    ratio = max(pair_ratio, 1.0 / pair_ratio)
    ok = ratio <= 1.2
    assert report(4, ok, f"(timing note) fir {w_fir:.2f}s vs fidr {w_fidr:.2f}s, "
                         f"ratio {ratio:.2f} <= 1.2")


def test_criterion_5_table3_ordering(table3_runs):
    details = []
    ok = True
    for alpha in (0.1, 0.5, 0.7):
        fidr25 = table3_runs[(alpha, "fidr", 25)]
        fir25 = table3_runs[(alpha, "fir", 25)]
        fir40 = table3_runs[(alpha, "fir", 40)]
        # magnitudes within one order of the printed values
        for key, got in ((("fidr", 25), fidr25), (("fir", 25), fir25),
                         (("fir", 40), fir40),
                         (("fidr", 40), table3_runs[(alpha, "fidr", 40)])):
            want = TABLE3[alpha][key]
            ok &= abs(math.log10(got / want)) <= 1.0
        # at 40 modes the integrated-by-parts scheme recovers to the error
        # level the increment scheme already reaches at 25 modes (<= 10x);
        # the like-for-like 40-mode ratio is printed for transparency
        ok &= fir40 <= 10.0 * fidr25
        ok &= fir25 >= 1e2 * fidr25
        details.append(
            f"a={alpha}: fir40/fidr25={fir40 / fidr25:.1f} (<=10), "
            f"fir25/fidr25={fir25 / fidr25:.0f} (>=100), "
            f"fir40/fidr40={fir40 / table3_runs[(alpha, 'fidr', 40)]:.1f}")
    assert report(5, ok, "; ".join(details))


def test_criterion_6_manufactured_convergence_slopes():
    """Stated band: fitted slope 1.0 +/- 0.2 on dt in [1e-2, 1e-1].

    The measured rate follows the consistency order 2 - alpha bending into
    the kernel/space error floor, and the reference table values imply the
    same (slope 1.61 at alpha=0.1 between 1e-1 and 1e-2), so this check
    fails by construction; kept at the stated tolerance on purpose.
    """
    dts = (1e-1, 5e-2, 2.5e-2, 1.25e-2)
    slopes = {}
    for alpha in (0.1, 0.5, 0.7):
        errs = [manufactured_run(alpha, dt, "fidr", BENCH25).related_error for dt in dts]
        slopes[alpha] = fit_rate(list(zip(dts, errs)))[0]
    ok = all(abs(s - 1.0) <= 0.2 for s in slopes.values())
    detail = ", ".join(f"alpha={a}: slope={s:.2f}" for a, s in slopes.items())
    assert report("6a", ok, detail + " (required 1.0 +/- 0.2)"), (
        f"measured slopes {slopes} follow the 2-alpha consistency order, "
        f"not the stated first-order band")


@pytest.fixture(scope="module")
def nonlinear_reference():
    # h = dt = 1e-4 reference; snapshots every 125 steps line up with every
    # step of the coarse ladder below
    prob = nonlinear_problem(0.5)
    rep = solve(prob, TimeGrid(1e-4, 10000), SpaceGrid(-1.0, 1.0, 20000), "fidr",
                BENCH25, snapshot_stride=125)
    return {round(t / 1.25e-2): u[::10] for t, u in rep.snapshots}


def test_criterion_6_nonlinear_self_convergence(nonlinear_reference):
    """Stated band: self-convergence slope 1.0 +/- 0.3 against the fine
    reference.

    The initial data is incompatible (u_xx + f(u) != 0 at t=0), so the
    solution has an unresolved fast transient at these step sizes and the
    aggregated-in-time error scales like sqrt(dt); kept at the stated
    tolerance on purpose.
    """
    prob = nonlinear_problem(0.5)
    dts = (1e-1, 5e-2, 2.5e-2, 1.25e-2)
    errs = []
    for dt in dts:
        nt = round(1.0 / dt)
        rep = solve(prob, TimeGrid(dt, nt), SpaceGrid(-1.0, 1.0, 2000), "fidr",
                    BENCH25, snapshot_stride=1)
        num = den = 0.0
        for t, u in rep.snapshots[1:]:
            u_ref = nonlinear_reference[round(t / 1.25e-2)]
            num += dt * float(np.max(np.abs(u - u_ref))) ** 2
            den += dt * float(np.max(np.abs(u_ref))) ** 2
        errs.append(math.sqrt(num / den))
    slope = fit_rate(list(zip(dts, errs)))[0]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ok = abs(slope - 1.0) <= 0.3
    assert report("6b", ok, f"self-errors {[f'{e:.2e}' for e in errs]} decreasing={decreasing}, "
                            f"slope={slope:.2f} (required 1.0 +/- 0.3)"), (
        "aggregated self-convergence is transient-limited at these steps")


def test_criterion_7_truncation_bounds():
    res_l1 = truncation_suite(variant="l1")
    res_fidr = truncation_suite(variant="fidr")
    ok = res_l1["status"] == "pass" and res_fidr["status"] == "pass"
    assert report(7, ok, f"direct rule: {res_l1['checked']} checks, "
                         f"{len(res_l1['violations'])} violations; fast rule: "
                         f"{res_fidr['checked']} checks, {len(res_fidr['violations'])} violations")


def test_criterion_8_coercivity_suites():
    fir = fir_coercivity_suite(seed=42)
    fidr = fidr_coercivity_suite(seed=43)
    ok = fir["status"] == "pass" and fidr["status"] == "pass"
    assert report(8, ok, f"quadratic-form bounds on 100+100 seeded mesh functions: "
                         f"fir={fir['status']} (eps={fir.get('eps', 0):.1e}), "
                         f"fidr={fidr['status']} (eps0={fidr.get('eps0', 0):.1e})")


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(2024)
    dt, n = 5e-3, 200
    t = dt * np.arange(n + 1)
    worst_fir = worst_fidr = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 0.95))
        c = rng.normal(size=5)
        u = (c[0] * np.sin(t) + c[1] * np.cos(2 * t) + c[2] * t
             + c[3] * t ** 2 + c[4])
        fir_soe = build_soe(1.0 + alpha, TIGHT, dt, 1.0)
        fidr_soe = build_soe(alpha, TIGHT, dt, 1.0)
        assert fir_soe.bound <= 1e-12 and fidr_soe.bound <= 1e-12
        w = l1_weights(alpha, n)
        base = np.array([l1_step(w, u[: k + 1], dt) for k in range(1, n + 1)])
        scale = float(np.max(np.abs(base)))
        sf = new_history("fir", alpha, dt, u[0], n_modes=fir_soe.n_modes)
        sd = new_history("fidr", alpha, dt, u[0], n_modes=fidr_soe.n_modes)
        vf = np.empty(n)
        vd = np.empty(n)
        for k in range(1, n + 1):
            vf[k - 1], sf = fir_step(sf, fir_soe, u[k])
            vd[k - 1], sd = fidr_step(sd, fidr_soe, u[k])
        worst_fir = max(worst_fir, float(np.max(np.abs(vf - base))) / scale)
        worst_fidr = max(worst_fidr, float(np.max(np.abs(vd - base))) / scale)
    path_ok = worst_fir <= 1e-9 and worst_fidr <= 1e-9

    prob = manufactured_problem(0.5)
    tg = TimeGrid(1.0 / 64, 64)
    sg = SpaceGrid(0.0, PI, 32)
    u_l1 = solve(prob, tg, sg, "l1").snapshots[-1][1]
    gap_fir = float(np.max(np.abs(solve(prob, tg, sg, "fir", TIGHT).snapshots[-1][1] - u_l1)))
    gap_fidr = float(np.max(np.abs(solve(prob, tg, sg, "fidr", TIGHT).snapshots[-1][1] - u_l1)))
    pde_ok = gap_fir <= 1e-8 and gap_fidr <= 1e-8
    ok = path_ok and pde_ok
    assert report(9, ok, f"50 paths: worst rel gap fir={worst_fir:.1e}, "
                         f"fidr={worst_fidr:.1e} (<=1e-9); 32x64 grid: "
                         f"fir={gap_fir:.1e}, fidr={gap_fidr:.1e} (<=1e-8)")


def test_criterion_10_gl_stability():
    res = gl_stability_suite(seed=42)
    ok = res["status"] == "pass" and res["checked"] == 20
    assert report(10, ok, f"20 damped systems over 2000 implicit steps: "
                          f"{len(res['violations'])} growth events")

"""The schemes' error analysis: closed-form constants and bounds, and
seeded numerical checks of the discrete inequalities they enter.

``theorem_constants`` and ``truncation_bound`` evaluate the fast rules'
energy-estimate constants and the one-step consistency bound.  Every
suite draws its random instances from a seeded generator, checks a
closed-form inequality against quantities computed by the actual scheme
implementations, and reports a status:

* ``pass`` / ``fail``      -- the inequality held / was violated;
* ``inadmissible``        -- the kernel error is too large for the
  inequality to say anything (vacuous bound), so nothing was checked.

Rules are named as in the rest of the package: l1, fir, fidr, gl.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.lapack import ztrtrs

from .quadrature import _check_count, _check_name, _check_order, _check_step
from .schemes import DirectHistory, caputo_reference, kernel_order, new_history
from .soe import SoEParams, build_soe

__all__ = [
    "theorem_constants",
    "truncation_bound",
    "fir_coercivity_suite",
    "fidr_coercivity_suite",
    "mesh_sobolev_suite",
    "summation_by_parts_suite",
    "truncation_suite",
    "gl_stability_suite",
    "run_property_suite",
]


def theorem_constants(alpha: float, t_n: float, dt: float, eps: float,
                      variant: str) -> tuple[float, float]:
    """The constants (mu, rho) of the discrete energy estimate of the fast
    rule ``variant`` (fir or fidr) at t_n >= dt under kernel error eps.

    The estimate is vacuous unless mu > 0: a kernel error too large for
    that leaves nothing to check.
    """
    _check_name("variant", variant, ("fir", "fidr"))
    _check_order(alpha)
    _check_step(dt)
    if not t_n >= dt:   # t_{n-1} >= 0; a NaN fails too
        raise ValueError(f"need t_n >= dt, got t_n = {t_n!r}, dt = {dt!r}")
    g1, g2 = math.gamma(1.0 - alpha), math.gamma(2.0 - alpha)
    t_prev = t_n - dt
    if variant == "fir":
        return ((t_n ** -alpha - 2.0 * alpha * eps * t_prev) / g1,
                (t_n ** (1.0 - alpha) - alpha * (1.0 - alpha) * eps * t_prev * dt) / g2)
    return ((t_n ** -alpha - eps) / g1,
            (dt ** (1.0 - alpha) / (1.0 - alpha) + t_prev * dt ** -alpha) / (2.0 * g1))


def truncation_bound(variant: str, alpha: float, dt: float, max_u2: float,
                     max_u1: float = 0.0, t_prev: float = 0.0,
                     eps0: float = 0.0) -> float:
    """One-step consistency bound of the direct rule (``l1``), plus the
    kernel term eps0 * t_prev * max|u'| / Gamma(1-alpha) for the
    increment-based fast rule (``fidr``), elementwise in arrays max_u1, t_prev."""
    _check_name("variant", variant, ("l1", "fidr"))
    _check_order(alpha)
    _check_step(dt)
    base = (
        dt ** (2.0 - alpha)
        / math.gamma(2.0 - alpha)
        * ((1.0 - alpha) / 12.0 + 2.0 ** (2.0 - alpha) / (2.0 - alpha) - (1.0 + 2.0 ** -alpha))
        * max_u2
    )
    if variant == "l1":
        return base
    return base + eps0 * t_prev * max_u1 / math.gamma(1.0 - alpha)


_SLACK = 1e-12  # absolute-plus-relative float slack on inequality checks
_N_FUNCS = 100  # random mesh functions per suite


def _verdict(name: str, checked: int, violations: list, **extra) -> dict:
    return {"name": name, "status": "fail" if violations else "pass", "checked": checked,
            "violations": violations, **extra}


def _run(scheme: str, alpha: float, g: np.ndarray, dt: float, soe=None) -> np.ndarray:
    """The rule's values D g^1 .. D g^n, streamed over the path g of scalar or field rows."""
    ev = new_history(scheme, alpha, dt, g[0], n_modes=0 if soe is None else soe.n_modes)
    if soe is not None:
        ev.use_kernel(soe)
    return np.array([ev.step(u) for u in g[1:]])


def _coercivity(scheme: str, seed: int) -> dict:
    """dt * sum_k (D g^k) g^k >= mu/2 * dt * sum (g^k)^2 - rho * (g^0)^2 on
    100 random mesh functions g of 20 steps, dt = 0.05, order 0.3, with D
    the fast rule ``scheme`` on a kernel built at delta = dt, and mu, rho
    the constants of ``theorem_constants`` under its certified bound."""
    name, alpha, dt, n_steps = f"{scheme}_coercivity", 0.3, 0.05, 20
    t_n = n_steps * dt
    soe = build_soe(kernel_order(scheme, alpha), SoEParams(0, 12, 6, 10), dt, t_n)
    eps = soe.bound
    eps_entry = {"eps" if scheme == "fir" else "eps0": eps}
    mu, rho = theorem_constants(alpha, t_n, dt, eps, scheme)
    # fidr's eps0 must also stay below the slack alpha/((1-alpha) dt^alpha)
    # that caps its leading unrolled coefficient
    if mu <= 0.0 or (scheme == "fidr" and eps > alpha / ((1.0 - alpha) * dt ** alpha)):
        return {"name": name, "status": "inadmissible", "checked": 0, "violations": [],
                **eps_entry}
    # row k draws instance k: n+1 samples, then g^0 / 2 in place of the first
    draws = np.random.default_rng(seed).normal(size=(_N_FUNCS, n_steps + 2))
    g = np.vstack([2.0 * draws[:, -1], draws.T[1:-1]])   # the instances as one field
    lhs = dt * np.sum(_run(scheme, alpha, g, dt, soe) * g[1:], axis=0)
    rhs = mu / 2.0 * dt * np.sum(g[1:] ** 2, axis=0) - rho * g[0] ** 2
    bad = np.flatnonzero(lhs < rhs - _SLACK * np.maximum(1.0, np.abs(rhs)))
    violations = [{"instance": int(k), "lhs": float(lhs[k]), "rhs": float(rhs[k])} for k in bad]
    return _verdict(name, _N_FUNCS, violations, **eps_entry)


def fir_coercivity_suite(seed: int) -> dict:
    """Quadratic-form lower bound of the integrated-by-parts fast rule.

    dt * sum_k (D g^k) g^k >= (t_n^-a - 2 a eps t_{n-1})/(2 G(1-a)) * dt * sum (g^k)^2
                            - (t_n^{1-a} - a(1-a) eps t_{n-1} dt)/G(2-a) * (g^0)^2
    with eps the certified bound of the kernel t^-(1+a): the constants
    mu/2 and rho of ``theorem_constants``.  Skipped as inadmissible when
    the leading constant is not positive.
    """
    return _coercivity("fir", seed)


def fidr_coercivity_suite(seed: int) -> dict:
    """Quadratic-form lower bound of the increment-based fast rule.

    dt * sum_k (D g^k) g^k >= dt (t_n^-a - eps0)/(2 G(1-a)) * sum (g^k)^2
        - (dt^{1-a}/(1-a) + t_{n-1} dt^-a)/(2 G(1-a)) * (g^0)^2,

    with eps0 the certified bound of the kernel t^-a: the constants mu/2
    and rho of ``theorem_constants``.  Skipped as inadmissible when
    eps0 >= t_n^-a or when eps0 exceeds the slack a/((1-a) dt^a) that caps
    the leading unrolled coefficient.
    """
    return _coercivity("fidr", seed)


def mesh_sobolev_suite(seed: int) -> dict:
    """Discrete max-norm bound: |u|_inf^2 <= th |d_x u|^2 + (1/th + 1/L) |u|^2
    for th in {0.1, 1, 10}, trapezoid-weighted L2 norms, on 100 random fields."""
    rng = np.random.default_rng(seed)
    violations = []
    checked = 0
    for k in range(_N_FUNCS):
        n = int(rng.integers(4, 200))
        L = float(rng.uniform(0.5, 5.0))
        h = L / n
        u = rng.normal(size=n + 1) * float(rng.uniform(0.1, 10.0))
        wts = np.full(n + 1, h)
        wts[0] = wts[-1] = h / 2.0
        norm_sq = float(np.sum(wts * u ** 2))
        grad_sq = float(np.sum((np.diff(u) / h) ** 2) * h)
        sup_sq = float(np.max(np.abs(u))) ** 2
        for theta in (0.1, 1.0, 10.0):
            checked += 1
            rhs = theta * grad_sq + (1.0 / theta + 1.0 / L) * norm_sq
            if sup_sq > rhs + _SLACK * max(1.0, rhs):
                violations.append({"instance": k, "theta": theta, "lhs": sup_sq, "rhs": rhs})
    return _verdict("mesh_sobolev", checked, violations)


def summation_by_parts_suite(seed: int) -> dict:
    """-(d_x u_{1/2}) u_0 - h sum (d_x^2 u_i) u_i + (d_x u_{N-1/2}) u_N
    equals |d_x u|^2 to 1e-11 relative on 100 random fields."""
    rng = np.random.default_rng(seed)
    violations = []
    for k in range(_N_FUNCS):
        n = int(rng.integers(4, 300))
        h = float(rng.uniform(0.01, 1.0))
        u = rng.normal(size=n + 1)
        dx = np.diff(u) / h
        d2 = (dx[1:] - dx[:-1]) / h
        lhs = -dx[0] * u[0] - h * float(np.dot(d2, u[1:-1])) + dx[-1] * u[-1]
        rhs = h * float(np.sum(dx ** 2))
        if abs(lhs - rhs) > 1e-11 * max(1.0, abs(rhs)):
            violations.append({"instance": k, "lhs": lhs, "rhs": rhs})
    return _verdict("summation_by_parts", _N_FUNCS, violations)


def truncation_suite(variant: str = "l1", step_filter=None) -> dict:
    """Consistency-bound check of the direct rule on u = t**2 and u = sin t.

    For orders 0.1, 0.5, 0.9 at dt = 1e-3 and every step n <= 1000 (or
    those in ``step_filter``) the rule's output is compared against the
    analytic derivative; the gap must stay below the closed-form bound
    (plus the certified kernel term for the increment-based fast rule).
    A step that is not an integer in 1..1000 is a ``ValueError``.
    """
    _check_name("variant", variant, ("l1", "fidr"))
    dt, n_max = 1e-3, 1000
    steps = range(1, n_max + 1) if step_filter is None else list(step_filter)
    for n in steps:
        _check_count("each step", n, 1, n_max)
    steps = np.array(steps, dtype=np.intp)
    t = dt * np.arange(n_max + 1)
    t_n, t_prev = t[steps], t[steps - 1]
    violations = []
    checked = 0
    for alpha in (0.1, 0.5, 0.9):
        soe = (build_soe(alpha, SoEParams(0, 15, 8, 6), dt, n_max * dt)
               if variant == "fidr" else None)
        # (u, max|u''|, max|u'| on [0, t_{n-1}], reference D u(t_n)) per step n
        for u, m2, m1, ref in (
            (t ** 2, 2.0, 2.0 * t_prev, caputo_reference("power", alpha, t_n, sigma=2.0)),
            (np.sin(t), 1.0, 1.0, caputo_reference("sin", alpha, t_n)),
        ):
            gap = np.abs(_run(variant, alpha, u, dt, soe)[steps - 1] - ref)
            checked += gap.size
            bnd = np.broadcast_to(truncation_bound(
                variant, alpha, dt, m2, max_u1=m1, t_prev=t_prev,
                eps0=soe.bound if soe is not None else 0.0), gap.shape)
            violations += [{"alpha": alpha, "n": int(steps[i]), "gap": float(gap[i]),
                            "bound": float(bnd[i])} for i in np.flatnonzero(gap > bnd)]
    return _verdict(f"truncation_{variant}", checked, violations)


#: Rows per block of the gl stability suite's forward substitution.
_GL_BLOCK = 64


def _gl_cases(seed: int) -> list:
    """The stability suite's 20 random (p, c, dt): all pairs, then each step."""
    rng = np.random.default_rng(seed)
    pairs = [(float(rng.uniform(0.05, 0.95)), complex(-rng.uniform(0.0, 5.0), 3.0 * rng.normal()))
             for _ in range(20)]
    return [(p, c, float(rng.uniform(1e-3, 1e-1))) for p, c in pairs]


def _gl_implicit_solve(p: float, c: complex, dt: float, n_steps: int) -> np.ndarray:
    """u^0 .. u^n_steps of the implicit gl solve of D^p u = c u from u^0 = 1.

    With the factor sigma and weights w of the gl ``DirectHistory`` and
    v = u - u^0, steps 1..n_steps are the lower-triangular Toeplitz system
    sum_{j<n} sigma w_j v^{n-j} - c v^n = c u^0, n = 1..n_steps, solved by
    blocked forward substitution: a block of ``_GL_BLOCK`` rows moves the
    rows before it to the right side as one convolution, then solves its
    own triangle, the same in every block, by one LAPACK ``ztrtrs`` call.
    """
    ev = DirectHistory("gl", p, dt, 1.0, n_steps)
    sw = ev.sigma * ev.rev[::-1]   # sigma * w_0 .. w_{n_steps+1}
    col = sw[:_GL_BLOCK].astype(complex)   # the triangle's column; sw stays real
    col[0] -= c
    tri = np.asfortranarray(toeplitz(col, np.zeros(_GL_BLOCK)))
    v = np.zeros(n_steps + 1, dtype=complex)   # v^0 = 0
    for m in range(0, n_steps, _GL_BLOCK):
        k = min(_GL_BLOCK, n_steps - m)
        rhs = np.full((k, 1), c)
        if m:
            rhs[:, 0] -= np.convolve(sw[1:m + k], v[1:m + 1], "valid")
        sol, info = ztrtrs(tri[:k, :k], rhs, lower=1, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"ztrtrs returned info = {info}")
        v[m + 1:m + k + 1] = sol[:, 0]
    return 1.0 + v


def gl_stability_suite(seed: int) -> dict:
    """Implicit fractional-difference solve of D^p u = c u must not grow,
    for 20 random pairs (p, c) with Re(c) <= 0 over 2000 steps.

    D is the gl rule every entry point runs: the suite solves for the
    complex u from u^0 = 1 with the factor sigma and the real weight table
    of a gl ``DirectHistory``, in blocks (``_gl_implicit_solve``).  A
    solution that overflows to NaN counts as growth.
    """
    n_steps = 2000
    violations = []
    cases = _gl_cases(seed)
    for p, c, dt in cases:
        peak = float(np.max(np.abs(_gl_implicit_solve(p, c, dt, n_steps))))
        if not peak <= 1.0 + 1e-12:
            violations.append({"p": p, "c": str(c), "max": peak})
    return _verdict("gl_stability", len(cases), violations)


def run_property_suite(seed: int, quick: bool = False) -> dict:
    """All suites under one seed; ``quick`` thins the dense truncation scan."""
    step_filter = range(1, 1001, 13) if quick else None
    suites = [
        fir_coercivity_suite(seed),
        fidr_coercivity_suite(seed + 1),
        mesh_sobolev_suite(seed + 2),
        summation_by_parts_suite(seed + 3),
        truncation_suite(variant="l1", step_filter=step_filter),
        truncation_suite(variant="fidr", step_filter=step_filter),
        gl_stability_suite(seed + 4),
    ]
    return {
        "seed": seed,
        "suites": suites,
        "all_pass": all(s["status"] in ("pass", "inadmissible") for s in suites),
    }

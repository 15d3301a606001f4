"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own quadrature and scheme code:
adaptive Simpson for smooth integrands, a power substitution for
endpoint singularities, and a graded-mesh trapezoid rule for the
fractional convolution integral.  ``fit_rate`` fits the convergence
rates that the acceptance criteria read.
"""
import math

import numpy as np


def adaptive_simpson(f, a, b, tol=1e-14, max_depth=60):
    """Classic recursive Simpson with Richardson correction."""

    def simp(fa, fm, fb, lo, hi):
        return (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(lo, hi, fa, fm, fb, whole, tol_, depth):
        mid = 0.5 * (lo + hi)
        flm, frm = f(0.5 * (lo + mid)), f(0.5 * (mid + hi))
        left = simp(fa, flm, fm, lo, mid)
        right = simp(fm, frm, fb, mid, hi)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        return rec(lo, mid, fa, flm, fm, left, tol_ / 2.0, depth + 1) + rec(
            mid, hi, fm, frm, fb, right, tol_ / 2.0, depth + 1
        )

    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    return rec(a, b, fa, fm, fb, simp(fa, fm, fb, a, b), tol, 0)


def singular_power_integral(f, gamma, a, tol=1e-14):
    """integral_0^a f(s) s**gamma ds for gamma in (-1, 0), via s = u**(1/(gamma+1))."""
    q = 1.0 / (gamma + 1.0)
    return adaptive_simpson(lambda u: f(u ** q) / (gamma + 1.0), 0.0, a ** (gamma + 1.0), tol)


def caputo_graded_trapezoid(du, alpha, t, n=2_000_000, grade=3.0):
    """Brute-force fractional derivative: trapezoid on a mesh graded toward
    the kernel singularity at the upper time limit."""
    i = np.arange(n + 1) / n
    v = t * i ** grade
    f = du(t - v[1:]) * v[1:] ** (-alpha)
    first = du(t) * v[1] ** (1.0 - alpha) / (1.0 - alpha)
    return (first + np.trapezoid(f, v[1:])) / math.gamma(1.0 - alpha)


def fidr_expanded_weights(soe, dt, n):
    """Coefficients a_l = sum_i w_i (1-e^{-s_i dt}) e^{-l s_i dt} / (s_i dt),
    l = 0..n-1, of the increment-based rule unrolled over its history, for
    the kernel sum_i w_i e^{-s_i t} with every rate s_i > 0."""
    if n < 1:
        raise ValueError("need n >= 1")
    x = soe.nodes * dt
    base = soe.weights * -np.expm1(-x) / x
    l = np.arange(n, dtype=float)
    return np.exp(-np.multiply.outer(l, x)) @ base


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_S, _W = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS   # the rule moved to [0, 1]


def fast_rule_values(scheme, u, dt, alpha, nodes, weights):
    """The fidr or fir rule with kernel sum(weights * exp(-nodes * t)) on
    the path u[0..n] of scalars or fields, at steps 1..n.

    Modes start at zero and advance from step 2 on by
    m <- e^{-x} m + b1 u_{n-1} + b2 u_{n-2}, x = s dt, where for fidr
    b1 = -b2 = e^{-x} (1 - e^{-x}) / x, and for fir
    b1 = e^{-x} dt int_0^1 (1-r) e^{-x r} dr, b2 = e^{-x} dt int_0^1 r e^{-x r} dr,
    integrated by a 24-point Gauss-Legendre rule, accurate for s dt <= 8.
    """
    x = nodes * dt
    if x.max() > 8.0:
        raise ValueError("gain quadrature is only accurate for s*dt <= 8")
    decay = np.exp(-x)
    if scheme == "fidr":
        b1 = decay * -np.expm1(-x) / x
        b2 = -b1
    elif scheme == "fir":
        damp = np.exp(-np.outer(x, _S))
        b1 = decay * dt * (damp @ (_W * (1.0 - _S)))
        b2 = decay * dt * (damp @ (_W * _S))
    else:
        raise ValueError(f"no fast rule {scheme!r}")
    u = np.asarray(u, dtype=float)
    path = u.reshape(len(u), -1)   # (steps, points)
    n = len(path) - 1
    hist = np.zeros((n, path.shape[1]))
    modes = np.zeros((len(nodes), path.shape[1]))
    for k in range(2, n + 1):
        modes = decay[:, None] * modes + np.outer(b1, path[k - 1]) + np.outer(b2, path[k - 2])
        hist[k - 1] = weights @ modes
    local = np.diff(path, axis=0) / (dt ** alpha * math.gamma(2.0 - alpha))
    if scheme == "fidr":
        vals = local + hist / math.gamma(1.0 - alpha)
    else:
        t = dt * np.arange(1, n + 1)[:, None]
        vals = local + (path[:n] / dt ** alpha - path[0] / t ** alpha
                        - alpha * hist) / math.gamma(1.0 - alpha)
    return vals.reshape((n,) + u.shape[1:])


def fit_rate(points):
    """Ordinary least squares on (log dt, log err): (slope, intercept,
    rejected), with the (dt, err) points of non-positive error, which cannot
    be fit, in ``rejected``.  Needs at least 3 usable points."""
    pts = sorted(((float(dt), float(e)) for dt, e in points), key=lambda p: -p[0])
    rejected = tuple(p for p in pts if p[1] <= 0.0)
    pts = [p for p in pts if p[1] > 0.0]
    if len(pts) < 3:
        raise ValueError("need at least 3 positive-error points to fit a rate")
    slope, intercept = np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)
    return float(slope), float(intercept), rejected



def manufactured_fields(x, t, alpha):
    """(source, exact, scale) of the manufactured problem
    u = g (exp(-x) t**(3+alpha) + 1), g = x**4 (pi-x)**4, at time t, by the
    product rule: D^alpha u = g exp(-x) Gamma(4+alpha)/6 t**3 and
    u_xx = (g'' - 2 g' + g) exp(-x) t**(3+alpha) + g''.  The terms of the
    source cancel where it changes sign, so its rounding is relative to
    ``scale``, the sum of their magnitudes."""
    p = np.asarray(x, dtype=float)
    q = math.pi - p
    g = p ** 4 * q ** 4
    g1 = 4.0 * p ** 3 * q ** 3 * (q - p)
    g2_terms = (12.0 * p ** 2 * q ** 4, -32.0 * p ** 3 * q ** 3, 12.0 * p ** 4 * q ** 2)
    g2, g2_abs = sum(g2_terms), sum(np.abs(g2_terms))
    ex, tau = np.exp(-p), t ** (3.0 + alpha)
    d_t = g * ex * math.gamma(4.0 + alpha) / 6.0 * t ** 3
    u_xx = (g2 - 2.0 * g1 + g) * ex * tau + g2
    scale = d_t + (g2_abs + 2.0 * np.abs(g1) + g) * ex * tau + g2_abs
    return d_t - u_xx, g * (ex * tau + 1.0), scale

"""Independent values of the four scalar steppers over a whole sample path.

Each function returns the derivative values at steps 1..n, written from
the formulas rather than through the library's stepping code: the direct
rule in increment form, the binomial rule from ``scipy.special.binom``,
and the fast rules' mode recurrences advanced for all modes at once, with
their gains integrated by a Gauss-Legendre rule.  The sample paths start
at u0 = 0, where the binomial rule's Riemann-Liouville and Caputo forms
agree.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import binom

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_S = 0.5 * (_GL_NODES + 1.0)  # nodes and weights moved to [0, 1]
_W = 0.5 * _GL_WEIGHTS


def l1_values(u: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """dt**-a / G(2-a) * sum_{k=1..n} a_{n-k} (u_k - u_{k-1})."""
    n = len(u) - 1
    l = np.arange(n, dtype=float)
    a = (l + 1.0) ** (1.0 - alpha) - l ** (1.0 - alpha)
    return np.convolve(a, np.diff(u))[:n] * dt ** -alpha / math.gamma(2.0 - alpha)


def gl_values(u: np.ndarray, dt: float, p: float) -> np.ndarray:
    """dt**-p * sum_{m=0..n} (-1)**m C(p, m) u_{n-m}."""
    n = len(u) - 1
    m = np.arange(n + 1)
    c = (-1.0) ** m * binom(p, m)
    return np.convolve(c, u)[1: n + 1] * dt ** -p


def fast_values(scheme: str, u: np.ndarray, dt: float, alpha: float,
                nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The fidr or fir rule with kernel sum(weights * exp(-nodes * t)).

    Modes start at zero and advance from step 2 on by
    m <- e^{-x} m + b1 u_{n-1} + b2 u_{n-2}, x = s dt, where for fidr
    b1 = -b2 = e^{-x} (1 - e^{-x}) / x, and for fir
    b1 = e^{-x} dt int_0^1 (1-r) e^{-x r} dr, b2 = e^{-x} dt int_0^1 r e^{-x r} dr.
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
    n = len(u) - 1
    hist = np.zeros(n)
    modes = np.zeros(len(nodes))
    for k in range(2, n + 1):
        modes = decay * modes + b1 * u[k - 1] + b2 * u[k - 2]
        hist[k - 1] = weights @ modes
    local = np.diff(u) / (dt ** alpha * math.gamma(2.0 - alpha))
    if scheme == "fidr":
        return local + hist / math.gamma(1.0 - alpha)
    t = dt * np.arange(1, n + 1)
    return local + (u[:n] / dt ** alpha - u[0] / t ** alpha - alpha * hist) / math.gamma(1.0 - alpha)

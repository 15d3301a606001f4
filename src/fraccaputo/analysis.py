"""Convergence-rate fitting and closed-form bound evaluation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceStudy",
    "TheoremConstants",
    "fit_rate",
    "theorem_constants",
    "truncation_bound",
]


@dataclass(frozen=True)
class ConvergenceStudy:
    """Least-squares log-log fit of error against step size."""

    fitted_slope: float
    intercept: float
    rejected: tuple = ()   # (dt, err) pairs dropped for err <= 0


def fit_rate(points) -> ConvergenceStudy:
    """Ordinary least squares on (log dt, log err).

    Points with non-positive error cannot be fit and are reported in
    ``rejected``.  Needs at least 3 usable points.
    """
    pts = sorted(((float(dt), float(e)) for dt, e in points), key=lambda p: -p[0])
    rejected = tuple(p for p in pts if p[1] <= 0.0)
    pts = [p for p in pts if p[1] > 0.0]
    if len(pts) < 3:
        raise ValueError("need at least 3 positive-error points to fit a rate")
    dts = np.array([p[0] for p in pts])
    errs = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(np.log(dts), np.log(errs), 1)
    return ConvergenceStudy(fitted_slope=float(slope), intercept=float(intercept),
                            rejected=rejected)


@dataclass(frozen=True)
class TheoremConstants:
    """Energy-estimate constants of the fast schemes' prior bounds.

    The estimate is vacuous unless mu > 0: a kernel error too large for
    that leaves nothing to check.
    """

    variant: str
    mu: float
    rho: float


def theorem_constants(alpha: float, t_n: float, t_prev: float, dt: float,
                      eps: float, variant: str) -> TheoremConstants:
    """Evaluate the constants (mu, rho) of either fast scheme's discrete
    energy estimate."""
    g1, g2 = math.gamma(1.0 - alpha), math.gamma(2.0 - alpha)
    if variant == "FIR":
        mu = (t_n ** -alpha - 2.0 * alpha * eps * t_prev) / g1
        rho = (t_n ** (1.0 - alpha) - alpha * (1.0 - alpha) * eps * t_prev * dt) / g2
    elif variant == "FIDR":
        mu = (t_n ** -alpha - eps) / g1
        rho = (dt ** (1.0 - alpha) / (1.0 - alpha) + t_prev * dt ** -alpha) / (2.0 * g1)
    else:
        raise ValueError(f"variant must be FIR or FIDR, got {variant!r}")
    return TheoremConstants(variant=variant, mu=mu, rho=rho)


def truncation_bound(variant: str, alpha: float, dt: float, max_u2: float,
                     max_u1: float = 0.0, t_prev: float = 0.0,
                     eps0: float = 0.0) -> float:
    """One-step consistency bound of the direct rule, plus the kernel term
    eps0 * t_prev * max|u'| / Gamma(1-alpha) for the increment-based fast
    rule."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("order must lie in (0, 1)")
    base = (
        dt ** (2.0 - alpha)
        / math.gamma(2.0 - alpha)
        * ((1.0 - alpha) / 12.0 + 2.0 ** (2.0 - alpha) / (2.0 - alpha) - (1.0 + 2.0 ** -alpha))
        * max_u2
    )
    if variant == "L1":
        return base
    if variant == "FIDR":
        return base + eps0 * t_prev * max_u1 / math.gamma(1.0 - alpha)
    raise ValueError(f"variant must be L1 or FIDR, got {variant!r}")

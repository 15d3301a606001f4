"""Gaussian quadrature rules used by the kernel compressor.

Two families are provided: Gauss-Legendre on an arbitrary interval
[lo, hi], and a Gauss rule for the power weight s**gamma on [0, a]
(gamma in (-1, 1)).  Both are built with the Golub-Welsch algorithm:
the symmetric tridiagonal matrix of three-term recurrence coefficients
is diagonalized, eigenvalues give the nodes and the squared first
eigenvector components give the weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = ["QuadRule", "ConstructionError", "gauss_legendre", "gauss_jacobi_power"]

#: Largest rule size the eigen solver is trusted for; benchmark configs stay
#: in single digits.
MAX_NODES = 64


class ConstructionError(RuntimeError):
    """Raised when a numerical construction (rule, kernel) fails."""


@dataclass(frozen=True)
class QuadRule:
    """An n-point Gaussian rule for integrands f(s) * s**weight_exponent.

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing abscissae, all inside the open interval.
    weights : ndarray
        Positive weights.  They absorb the weight function, so the rule
        is applied as ``sum(weights * f(nodes))``.
    interval : (float, float)
        Integration interval (lo, hi).
    weight_exponent : float
        Exponent gamma of the weight s**gamma (0 for Legendre).
    """

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]
    weight_exponent: float

    def __post_init__(self) -> None:
        lo, hi = self.interval
        if not np.all(np.diff(self.nodes) > 0):
            raise ConstructionError("nodes are not strictly increasing")
        if not (np.all(self.nodes > lo) and np.all(self.nodes < hi)):
            raise ConstructionError("nodes escape the open interval")
        if not np.all(self.weights > 0):
            raise ConstructionError("non-positive quadrature weight")
        moment = _weight_moment(lo, hi, self.weight_exponent)
        if abs(float(np.sum(self.weights)) - moment) > 1e-12 * abs(moment):
            raise ConstructionError("weights do not integrate the constant 1")


def _weight_moment(lo: float, hi: float, gamma: float) -> float:
    """Integral of s**gamma over [lo, hi]."""
    return (hi ** (gamma + 1.0) - lo ** (gamma + 1.0)) / (gamma + 1.0)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"rule size must be >= 1, got n={n}")
    if n > MAX_NODES:
        raise ValueError(f"rule size capped at {MAX_NODES}, got n={n}")


def _golub_welsch(diag: np.ndarray, off: np.ndarray, family: str):
    """Nodes x and first-component weights vec[0]**2 of the Jacobi matrix
    with diagonal ``diag`` and off-diagonal ``off`` (n = 1 included)."""
    try:
        x, vec = eigh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConstructionError(f"{family} eigen solve failed for n={len(diag)}") from exc
    return x, vec[0] ** 2


def gauss_legendre(n: int, lo: float, hi: float) -> QuadRule:
    """n-point Gauss-Legendre rule on [lo, hi].

    Exact for polynomials of degree <= 2n - 1.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= 64.
    lo, hi : float
        Interval endpoints, lo < hi.
    """
    _check_n(n)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    k = np.arange(1.0, n)
    x, v0sq = _golub_welsch(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), "Legendre")
    w = 2.0 * v0sq
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return QuadRule(mid + half * x, half * w, (lo, hi), 0.0)


def gauss_jacobi_power(n: int, gamma: float, a: float) -> QuadRule:
    """n-point Gauss rule for the weight s**gamma on [0, a].

    The returned weights absorb the power factor:
    ``sum(w_k * f(s_k)) == integral_0^a f(s) s**gamma ds`` exactly for
    polynomials f of degree <= 2n - 1.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= 64.
    gamma : float
        Weight exponent, must satisfy -1 < gamma < 1.
    a : float
        Right endpoint, a > 0.

    Notes
    -----
    The power weight on [0, 1] maps to the Jacobi weight (1+x)**gamma on
    [-1, 1] under s = (1 + x) / 2; the recurrence coefficients of the
    corresponding monic Jacobi polynomials fill the tridiagonal matrix.
    """
    _check_n(n)
    if not -1.0 < gamma < 1.0:
        raise ValueError(f"weight exponent must lie in (-1, 1), got {gamma}")
    if not a > 0:
        raise ValueError(f"need a > 0, got {a}")
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = gamma / (gamma + 2.0)
    diag[1:] = gamma * gamma / ((2.0 * k + gamma) * (2.0 * k + gamma + 2.0))
    off = 2.0 * k * (k + gamma) / ((2.0 * k + gamma) * np.sqrt((2.0 * k + gamma) ** 2 - 1.0))
    x, v0sq = _golub_welsch(diag, off, "Jacobi")
    nodes = a * (1.0 + x) / 2.0
    weights = a ** (gamma + 1.0) / (gamma + 1.0) * v0sq
    return QuadRule(nodes, weights, (0.0, a), gamma)

"""Gaussian quadrature rules used by the kernel compressor.

Two families are provided: Gauss-Legendre on an arbitrary interval
[lo, hi], and a Gauss rule for the power weight s**gamma on [0, a]
(gamma in (-1, 1)).  Both are built with the Golub-Welsch algorithm:
the symmetric tridiagonal matrix of three-term recurrence coefficients
is diagonalized, eigenvalues give the nodes and the squared first
eigenvector components give the weights.  Each family's rule on
[-1, 1] is solved once and kept read-only: Legendre once per size, as a
kernel's dyadic ladder maps the same rule to each of its intervals, and
Jacobi once per (size, gamma), as the power weight's [0, a] enters only
through the affine map of the nodes and a scale of the weights.  A mapped
rule is the caller's own, and equal bit for bit to one solved afresh.
Legendre also takes arrays of endpoints: one call maps the rule to every
interval of a ladder at once, and its ``QuadRule`` holds one row of nodes
and weights per interval, each row equal bit for bit to that interval's
scalar call.  The package's shared input checks live here too, with
``_real``, the one reading of a real number or sample that they all share.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = ["QuadRule", "ConstructionError", "gauss_legendre", "gauss_jacobi_power"]

#: Largest rule size the eigen solver is trusted for; benchmark configs stay
#: in single digits.
MAX_NODES = 64


class ConstructionError(RuntimeError):
    """Raised when a numerical construction (rule, kernel) fails."""


def _real(name: str, value) -> np.ndarray:
    """``value``, of numpy integer or floating kind, as a float64 array not copied if it
    is one; else (a bool, str, object, None or complex) a ``ValueError``, never a parse."""
    value = np.asarray(value)
    if value.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be of integer or floating kind, not {value.dtype}")
    return value.astype(float, copy=False)


def _check_count(name: str, value, least, most=math.inf) -> None:
    """A ``ValueError`` unless ``value`` is an integer (numpy's too, no bool) in [least, most]."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and least <= value <= most):
        span = f">= {least}" if most == math.inf else f"in {least}..{most}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def _check_name(kind: str, value, allowed) -> None:
    """A ``ValueError`` naming ``allowed`` unless ``value`` is one of them."""
    if value not in allowed:
        raise ValueError(f"unknown {kind} {value!r}; pick one of {allowed}")


def _check_positive(name: str, value) -> np.ndarray:
    """``_real(name, value)``, a ``ValueError`` unless its every entry is > 0 (a NaN fails)."""
    value = _real(name, value)
    if not (value > 0).all():
        raise ValueError(f"need {name} > 0, got {value.min()}")
    return value


def _check_order(alpha: float) -> None:
    if not 0.0 < _real("order", alpha)[()] < 1.0:   # [()]: a scalar compares faster than 0-d
        raise ValueError("order must lie in (0, 1)")


def _check_step(dt: float) -> None:
    if not 0.0 < _real("step dt", dt)[()] < math.inf:   # as a scalar, as above
        raise ValueError(f"step dt must be positive and finite, got {dt}")


@dataclass(frozen=True, eq=False)
class QuadRule:
    """An n-point Gaussian rule for integrands f(s) * s**weight_exponent,
    on one interval or on each of an array of intervals.

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing abscissae, all inside the open interval:
        shape (n,) for one interval, ``lo.shape + (n,)`` for an array of
        them, one row per interval.
    weights : ndarray
        Positive weights, shaped as ``nodes``.  They absorb the weight
        function, so the rule is applied as ``sum(weights * f(nodes))``
        along the last axis.
    interval : (float, float) or (ndarray, ndarray)
        Integration interval (lo, hi), or arrays of the intervals' ends
        (0-d arrays for one Legendre interval).
    weight_exponent : float
        Exponent gamma of the weight s**gamma (0 for Legendre).

    Every check holds per interval, along the last axis.
    """

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]
    weight_exponent: float

    def __post_init__(self) -> None:
        lo, hi = self.interval
        nodes = self.nodes
        if not (np.diff(nodes) > 0).all():
            raise ConstructionError("nodes are not strictly increasing")
        # increasing nodes stay inside when the first and the last do
        if not ((nodes[..., 0] > lo).all() and (nodes[..., -1] < hi).all()):
            raise ConstructionError("nodes escape the open interval")
        if not (self.weights > 0).all():
            raise ConstructionError("non-positive quadrature weight")
        p = self.weight_exponent + 1.0   # s**gamma integrates to s**p / p
        moment = (hi ** p - lo ** p) / p
        if (abs(self.weights.sum(axis=-1) - moment) > 1e-12 * abs(moment)).any():
            raise ConstructionError("weights do not integrate the constant 1")


def _golub_welsch(diag: np.ndarray, off: np.ndarray, family: str):
    """Nodes x and first-component weights vec[0]**2 of the Jacobi matrix
    with diagonal ``diag`` and off-diagonal ``off`` (n = 1 included)."""
    try:
        x, vec = eigh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConstructionError(f"{family} eigen solve failed for n={len(diag)}") from exc
    return x, vec[0] ** 2


def gauss_legendre(n: int, lo, hi) -> QuadRule:
    """n-point Gauss-Legendre rule on [lo, hi], or on each [lo[k], hi[k]].

    Exact for polynomials of degree <= 2n - 1.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= 64.
    lo, hi : float or array_like
        Interval endpoints, lo < hi, broadcast together and copied as float
        arrays (``_real``): one rule per interval, nodes and weights of shape
        ``lo.shape + (n,)``, each row the same ``mid + half * x`` and
        ``half * w`` arithmetic, so scalar ends give one rule of shape (n,).
    """
    _check_count("rule size n", n, 1, MAX_NODES)
    x, w = _legendre(n)
    lo, hi = np.broadcast_arrays(np.array(_real("lo", lo)), np.array(_real("hi", hi)))
    empty = np.flatnonzero(~(lo < hi))   # a NaN end makes an empty interval too
    if empty.size:
        k = empty[0]
        raise ValueError(f"need lo < hi, got [{lo.flat[k]}, {hi.flat[k]}] at interval {k}")
    mid, half = 0.5 * (lo + hi)[..., None], 0.5 * (hi - lo)[..., None]
    return QuadRule(mid + half * x, half * w, (lo, hi), 0.0)


@lru_cache(maxsize=MAX_NODES)
def _legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    read-only arrays computed once per n."""
    k = np.arange(1.0, n)
    x, v0sq = _golub_welsch(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), "Legendre")
    w = 2.0 * v0sq
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    _check_count("rule size n", n, 1, MAX_NODES)
    if not -1.0 < gamma < 1.0:
        raise ValueError(f"weight exponent must lie in (-1, 1), got {gamma}")
    a = float(_check_positive("a", a))
    x, v0sq = _jacobi(n, gamma)
    nodes = a * (1.0 + x) / 2.0
    weights = a ** (gamma + 1.0) / (gamma + 1.0) * v0sq
    return QuadRule(nodes, weights, (0.0, a), gamma)


@lru_cache(maxsize=256)
def _jacobi(n: int, gamma: float):
    """Nodes x and first-component weights v0**2 of the n-point Gauss-Jacobi
    rule for the weight (1+x)**gamma on [-1, 1], read-only arrays computed
    once per (n, gamma)."""
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = gamma / (gamma + 2.0)
    diag[1:] = gamma * gamma / ((2.0 * k + gamma) * (2.0 * k + gamma + 2.0))
    off = 2.0 * k * (k + gamma) / ((2.0 * k + gamma) * np.sqrt((2.0 * k + gamma) ** 2 - 1.0))
    x, v0sq = _golub_welsch(diag, off, "Jacobi")
    x.flags.writeable = v0sq.flags.writeable = False
    return x, v0sq

"""Sum-of-exponentials compression of power-law kernels t**(-beta).

The kernel is written as a Laplace integral over frequencies s, the
frequency axis is split into a low band [0, 2**a] handled by one
power-weight Gauss rule (or dropped, with n1 = 0), a ladder of dyadic
intervals [2**j, 2**(j+1)] for j = a..b-1 each handled by a Legendre
rule, and a dropped tail [2**b, inf).  The result is a single list of
(weight, decay-rate) pairs valid on a time window [delta, horizon],
together with a closed-form error bound with one term per piece (beta
in (1, 2) and beta in (0, 1) have different tail and rule estimates,
hence two bound formulas).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from .quadrature import ConstructionError, gauss_jacobi_power, gauss_legendre

__all__ = [
    "SoEParams",
    "SoEApproximation",
    "build_soe",
    "soe_eval",
    "soe_error_bound_terms",
    "soe_max_error",
    "tail_integral",
]


@dataclass(frozen=True)
class SoEParams:
    """Partition parameters of the frequency axis.

    Attributes
    ----------
    a : int
        Ladder bottom exponent: the power-weight rule covers [0, 2**a]
        and the dyadic ladder starts there.
    b : int
        Ladder top exponent: the last Legendre interval is
        [2**(b-1), 2**b] and everything above 2**b is dropped.
    n1 : int
        Nodes of the power-weight rule.  0 drops the low band; the bound
        then counts the dropped integral, delta**-beta * P(beta, delta * 2**a).
    n2 : int
        Legendre nodes per dyadic interval.
    """

    a: int
    b: int
    n1: int
    n2: int

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"ladder is empty: a={self.a} must be < b={self.b}")
        if self.n1 < 0:
            raise ValueError("n1 must be >= 0")
        if self.n2 < 1:
            raise ValueError("n2 must be >= 1")

    @classmethod
    def from_ladder(cls, a: int, b: int, n1: int, n2: int) -> "SoEParams":
        """Construct from ladder exponents (a, b) and node counts."""
        return cls(a, b, n1, n2)

    @property
    def n_modes(self) -> int:
        return self.n1 + self.n2 * (self.b - self.a)


@dataclass(frozen=True)
class SoEApproximation:
    """Compressed kernel: t**-beta ~ sum(weights * exp(-nodes * t)).

    Valid on [delta, horizon] with absolute error at most ``bound``.
    """

    beta: float
    delta: float
    horizon: float
    nodes: np.ndarray
    weights: np.ndarray
    bound: float

    def __post_init__(self) -> None:
        if not 0 < self.delta < self.horizon:
            raise ValueError("need 0 < delta < horizon")
        if len(self.nodes) != len(self.weights):
            raise ConstructionError("node and weight arrays differ in length")
        if not (np.all(self.nodes > 0) and np.all(np.diff(self.nodes) > 0)):
            raise ConstructionError("decay rates must be positive and increasing")
        if not np.all(self.weights > 0):
            raise ConstructionError("mode weights must be positive")

    @property
    def n_modes(self) -> int:
        return len(self.nodes)


def build_soe(beta: float, params: SoEParams, delta: float, horizon: float) -> SoEApproximation:
    """Compress t**-beta into decaying exponentials on [delta, horizon].

    Low-band weights come out of the power rule divided by Gamma(beta);
    ladder weights additionally carry the factor s**(beta-1) evaluated at
    the Legendre nodes, so every mode exposes the same (w, s) interface.
    ``bound`` is the sum of ``soe_error_bound_terms``.
    """
    if not 0 < delta < horizon:
        raise ValueError("need 0 < delta < horizon")
    # first, so that an order whose Gamma(beta) overflows fails there as bad input
    eps = sum(soe_error_bound_terms(beta, params, delta, horizon))
    gb = math.gamma(beta)
    a, b = params.a, params.b
    nodes, weights = [], []
    if params.n1 > 0:
        rule = gauss_jacobi_power(params.n1, beta - 1.0, 2.0 ** a)
        nodes.append(rule.nodes)
        weights.append(rule.weights / gb)
    for j in range(a, b):
        rule = gauss_legendre(params.n2, 2.0 ** j, 2.0 ** (j + 1))
        nodes.append(rule.nodes)
        weights.append(rule.weights * rule.nodes ** (beta - 1.0) / gb)
    if not nodes:
        raise ConstructionError("parameter combination yields zero modes")
    s = np.concatenate(nodes)
    w = np.concatenate(weights)
    return SoEApproximation(beta, delta, horizon, s, w, eps)


def soe_eval(soe: SoEApproximation, t):
    """Evaluate sum(w_i * exp(-s_i * t)); t may be a scalar or an array."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("kernel evaluation requires t > 0")
    out = np.exp(-np.multiply.outer(t_arr, soe.nodes)) @ soe.weights
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def soe_error_bound_terms(
    beta: float, params: SoEParams, delta: float, horizon: float
) -> tuple[float, float, float]:
    """The (tail, low-band rule, ladder rule) contributions to the
    closed-form bound on max_{[delta,horizon]} |t**-beta - soe(t)|.

    beta in (1, 2) and beta in (0, 1) use different closed forms; beta = 1
    is outside both and rejected.  With n1 = 0 the low-band term is the
    dropped integral (1/Gamma(beta)) int_0^{2**a} exp(-t*s) s**(beta-1) ds,
    which decreases in t and so peaks at t = delta.
    """
    if not (0.0 < beta < 1.0 or 1.0 < beta < 2.0):
        raise ValueError(f"bound is defined for beta in (0,1) or (1,2), got {beta}")
    try:
        gb = math.gamma(beta)
    except OverflowError:
        raise ValueError(f"Gamma overflows at kernel order beta = {beta!r}") from None
    a, b, n1, n2 = params.a, params.b, params.n1, params.n2
    T = horizon
    ladder_const = (math.exp(1.0 / math.e) / 4.0) ** (2 * n2)
    if n1 == 0:
        low = delta ** -beta * float(gammainc(beta, delta * 2.0 ** a))
    if beta > 1.0:
        tail = math.exp(-delta * 2.0 ** b) * 2.0 ** (beta - 1.0) * (
            2.0 ** (beta * b) / gb + delta ** -beta
        )
        if n1 > 0:
            low = (
                2.0 * math.sqrt(math.pi) * 2.0 ** (a * beta) * n1 ** 1.5
                * ((math.e / 8.0) * (2.0 ** a * T / n1)) ** (2 * n1) / gb
            )
        ladder = 2.0 ** (beta - 1.5) * math.pi * 2.0 ** (beta * b) * ladder_const / gb
    else:
        tail = math.exp(-delta * 2.0 ** b) / (gb * delta * 2.0 ** ((1.0 - beta) * b))
        if n1 > 0:
            low = (
                (4.0 * math.sqrt(math.pi) * 2.0 ** (a * beta) / math.e ** 2)
                * ((2 * n1 - 1) * n1 ** 1.5 / (2 * n1 + beta))
                * ((2.0 ** a * math.e * n1 * T) / (2.0 * (2 * n1 - 1) ** 2)) ** (2 * n1)
                / gb
            )
        ladder = 2.0 * math.sqrt(2.0) * math.pi * 2.0 ** (beta * b) * ladder_const / gb
    return tail, low, ladder


def soe_max_error(soe: SoEApproximation, n_samples: int):
    """Empirical kernel error, sampled log-uniformly on [delta, horizon].

    Returns (max_err, curve) where curve has rows (t, |t**-beta - soe(t)|).
    Log-uniform sampling concentrates points near delta, where the error
    peaks.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    t = np.geomspace(soe.delta, soe.horizon, n_samples)
    err = np.abs(t ** -soe.beta - soe_eval(soe, t))
    return float(err.max()), np.column_stack([t, err])


def tail_integral(beta: float, p: float, t: float) -> float:
    """Dropped-tail size (1/Gamma(beta)) * int_p^inf exp(-t*s) s**(beta-1) ds.

    Evaluated through the regularized upper incomplete gamma function.
    Returns 0 when t*p > 700 (the value underflows double precision long
    before that).
    """
    if beta <= 0 or p <= 0 or t <= 0:
        raise ValueError("tail_integral requires beta, p, t > 0")
    x = t * p
    if x > 700.0:
        return 0.0
    return float(gammaincc(beta, x)) / t ** beta

"""Evaluators of the Caputo derivative on a uniform grid.

Four discretizations consume samples u^0, u^1, ... one step at a time,
as 1-D fields in the solver and as scalar streams through the ``*_step``
functions, with one history term ``weights @ state`` for both.  The two
full-history rules are one evaluator, ``DirectHistory``, which sums weights
against u - u^0 and differs per rule only in its factor sigma and its
weight table; the two fast rules are ``FastHistory``, whose one rank update
of the modes advances fields and streams (a stream is a field of one point):

* ``l1``   -- direct piecewise-linear rule, O(n) per step;
* ``fir``  -- fast rule compressing the integrated-by-parts history
  kernel t**-(1+alpha), O(N_modes) per step;
* ``fidr`` -- fast rule compressing t**-alpha directly against the
  sample increments, O(N_modes) per step;
* ``gl``   -- fractional-difference rule with binomial weights over the
  full history (the storage-hungry baseline).

A fast rule runs on one compressed kernel, fixed before its first step.
Its modes decay by d = exp(-s*dt) per step.  ``FastHistory`` stores them
age-shifted, true modes = d**age * stored, so that no step scales the
(modes x points) array: a push adds its rank update through the
coefficient row of its age, the history term reads through the weight row
of its age, and once per period of at most 64 steps (``_PERIOD_CAP``) the
stored modes are folded back to their true values.  Each state builds its
tables of rows when it binds its kernel (``_mode_tables``).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .quadrature import ConstructionError, gauss_jacobi_power
from .soe import SoEApproximation

__all__ = [
    "TimeGrid",
    "FastHistory",
    "kernel_order",
    "DirectHistory",
    "new_history",
    "fir_step",
    "fidr_step",
    "gl_step",
    "gl_coefficients",
    "l1_weights",
    "l1_step",
    "caputo_reference",
]

SCHEMES = ("l1", "fir", "fidr", "gl")

#: Longest period, in steps, between two folds of a fast rule's stored modes.
_PERIOD_CAP = 64
#: ln 2**400: the largest factor d**-age that a stored mode or a table row
#: carries, far inside the float range either way.
_SCALE_LN = 400.0 * math.log(2.0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with step dt, n_steps steps, horizon = dt * n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        _check_step(self.dt)
        if not (isinstance(self.n_steps, numbers.Integral) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps


# ---------------------------------------------------------------------------
# numerically stable coefficient helpers

def phi(x):
    """(1 - exp(-x)) / x, the mode gain of the increment-based fast rule."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, -np.expm1(-x) / safe)


def lam2(x):
    """(1 - exp(-x) - x*exp(-x)) / x**2, fir's gain on u^{n-1}; below
    x = 0.5, where that form cancels, its Taylor series."""
    x = np.asarray(x, dtype=float)
    small = x < 0.5
    xs = np.where(small, x, 1.0)
    ser = np.zeros_like(xs)
    for k in range(18, -1, -1):
        ser = ser * xs + (-1.0) ** k * (k + 1) / math.factorial(k + 2)
    xb = np.where(small, 1.0, x)
    return np.where(small, ser, (1.0 - np.exp(-xb) - xb * np.exp(-xb)) / xb ** 2)


def mode_step_coeffs(scheme: str, nodes: np.ndarray, dt: float):
    """Per-mode decay d and the (rank x modes) block ``coeffs`` of the true
    modes' recurrence modes <- d*modes + coeffs.T @ block, which
    ``FastHistory.push(u^n)`` advances on its age-shifted modes through the
    rows coeffs * d**-age of ``_mode_tables``.  fir has rank 2 against
    block = [u^n, u^{n-1}], with gains phi - lam2 and lam2 at x = nodes*dt
    (exp(-x*r) integrated against 1 - r and r over [0, 1]); fidr has rank 1
    against the increment u^n - u^{n-1}, so a constant sample leaves its
    modes exactly 0.  ``FastHistory`` checks ``scheme``.
    """
    x = nodes * dt
    decay = np.exp(-x)
    if scheme == "fir":
        gain2 = lam2(x)
        return decay, decay * dt * np.array([phi(x) - gain2, gain2])
    return decay, (phi(x) * decay)[None, :]


def _mode_tables(scheme: str, alpha: float, dt: float, soe: SoEApproximation):
    """(period F, coefficient rows, weight rows, fold row) of the fast rule
    ``scheme`` of order ``alpha`` on ``soe`` at step ``dt``.

    With d = exp(-s*dt) per mode, F = min(_PERIOD_CAP, floor(ln 2**400 /
    max(s*dt))), so that d**-age stays below 2**400 for every age <= F;
    F = 0 (s*dt > 277, d = 0 included) is a plain decay pass at every step.
    Row ``age`` of the (F+1, rank, modes) coefficients is coeffs * d**-age
    (``mode_step_coeffs``), row ``age`` of the (F+1, modes) weights is
    d**age times the history weights w/Gamma(1-alpha) (times -alpha for
    fir), and the (modes, 1) fold row is d**(F+1).  They are powers of the
    rounded d, not exp(-age*s*dt), so that F = 0 repeats the decay pass to
    the bit and no 0 * inf arises where d underflows.
    """
    decay, coeffs = mode_step_coeffs(scheme, soe.nodes, dt)
    x_max = float(soe.nodes[-1]) * dt   # nodes increase
    period = _PERIOD_CAP if x_max * _PERIOD_CAP <= _SCALE_LN else int(_SCALE_LN // x_max)
    powers = decay ** np.arange(period + 2.0)[:, None]
    hist_weights = soe.weights * ((-alpha if scheme == "fir" else 1.0) / math.gamma(1.0 - alpha))
    return (period, coeffs / powers[:period + 1, None], hist_weights * powers[:period + 1],
            powers[period + 1, :, None])


# ---------------------------------------------------------------------------
# evaluators: one class per rule, shared by the solver and the steppers

def _check_order(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("order must lie in (0, 1)")


def _check_step(dt: float) -> None:
    if not 0.0 < dt < math.inf:
        raise ValueError(f"step dt must be positive and finite, got {dt}")


def _samples(u, dtype=None) -> np.ndarray:
    """A copy of u, a scalar or 1-D field, as ``dtype``: by default float, or
    complex as u is.  A complex u is rejected where ``dtype`` is float."""
    u = np.asarray(u)
    if u.ndim > 1:
        raise ValueError(f"samples are scalars or 1-D fields, not of shape {u.shape}")
    if dtype is float and u.dtype.kind == "c":
        raise ValueError("this rule takes real samples, not complex ones")
    return u.astype(dtype or np.result_type(u, float))


class _Evaluator:
    """D u^n = sigma * u^n + known() on scalar samples (a stream) or 1-D
    fields, where known() = history_term() - lag * anchor is the part of
    D u^n fixed before u^n.  lag = sigma, except in fir, whose boundary term
    dt**-alpha/Gamma(1-alpha) * anchor is taken into it.  The history term
    is one ``weights.dot(state)`` (``@``'s BLAS call, less call overhead) on
    contiguous operands and only reads; ``push(u^n)`` alone advances the
    state.  The solver calls ``known()``, solves for u^n, then calls
    ``push``; ``step(u^n)`` is the same formula on a given sample, followed
    by its push."""

    step_index = 0

    def known(self):
        hist = self.history_term()   # a fresh value, so updated in place
        hist -= self.lag * self.anchor
        return hist

    def step(self, u):
        value = self.sigma * u + self.known()
        self.push(u)
        return value


def kernel_order(scheme: str, alpha: float) -> float:
    """Order beta of the kernel t**-beta that the fast rule of order alpha
    compresses: alpha + 1 for fir, alpha for fidr; other rules have none."""
    if scheme == "fir":
        return alpha + 1.0
    if scheme == "fidr":
        return alpha
    raise ValueError(f"{scheme!r} is not a fast rule (fir or fidr)")


class FastHistory(_Evaluator):
    """fir or fidr on the modes of a compressed kernel, over real samples
    (a complex one is a ``ValueError``); anchor u^{n-1}.  The true modes
    follow modes <- d*modes + coeffs.T @ block (``mode_step_coeffs``), zero
    at step 1; fir adds the boundary terms of its integration by parts,
    dt**-alpha/Gamma(1-alpha) * u^{n-1}, which its lag alpha*sigma takes in,
    and -t_n**-alpha/Gamma(1-alpha) * u^0.  It runs on one kernel, bound by
    ``use_kernel`` before its first step (lazily, by the steppers).

    ``modes`` holds the true modes age-shifted, true = d**age * modes, one
    age for all of them.  ``push`` views them as (modes x points), a stream
    as one point, and makes one BLAS rank update of their Fortran view
    through row age+1 of the coefficient table: rank 2 against
    [u^n, u^{n-1}] for fir, rank 1 against the increment u^n - u^{n-1} for
    fidr.  A push past the period F first folds, modes *= d**(F+1), and
    adds through row 0, so the age runs 0, 1, .., F, 0, ...  The history
    term is row ``age`` of the weight table @ modes.  Fields and streams
    share this one path; ``use_kernel`` builds the state's own tables
    (``_mode_tables``)."""

    def __init__(self, scheme: str, alpha: float, dt: float, u0, n_modes: int):
        self.beta = kernel_order(scheme, alpha)
        _check_order(alpha)
        _check_step(dt)
        if not (isinstance(n_modes, numbers.Integral) and n_modes >= 1):
            raise ValueError(f"n_modes, the kernel's mode count, must be an integer >= 1, "
                             f"got {n_modes!r}")
        self.scheme, self.alpha, self.dt, self.soe, self.age = scheme, alpha, dt, None, 0
        self.u0 = self.anchor = _samples(u0, float)[()]
        self.modes = np.zeros((n_modes,) + np.shape(self.u0))
        # the (points x modes) view of modes that push updates, Fortran-ordered
        self._cols = self.modes.reshape(n_modes, -1).T
        self.g1 = math.gamma(1.0 - alpha)
        self.sigma = dt ** -alpha / math.gamma(2.0 - alpha)
        self.lag = alpha * self.sigma if scheme == "fir" else self.sigma

    def use_kernel(self, soe: SoEApproximation) -> None:
        """Bind ``soe``, a kernel of order ``beta``, for the state's whole
        life.  The bound kernel again is a no-op; any other kernel is a
        ``ValueError``, raised before the state changes."""
        if soe is self.soe:
            return
        if self.soe is not None:
            raise ValueError(f"this {self.scheme} state is bound to another kernel")
        if soe.n_modes != len(self.modes):
            raise ValueError("mode count of state and kernel disagree")
        if not math.isclose(soe.beta, self.beta, rel_tol=1e-12):
            raise ValueError(f"{self.scheme} of order {self.alpha} needs a kernel of "
                             f"order {self.beta}, got {soe.beta}")
        self.period, self._coeffs, self._weights, self._fold = _mode_tables(
            self.scheme, self.alpha, self.dt, soe)
        self.soe = soe

    def history_term(self):
        hist = self._weights[self.age].dot(self.modes)
        if self.scheme == "fir":
            # the u^0 boundary term of the integration by parts
            t_n = (self.step_index + 1) * self.dt
            hist -= self.u0 * (t_n ** -self.alpha / self.g1)
        return hist

    def push(self, u) -> None:
        u = _samples(u, float)[()]
        block = np.array((u, self.anchor)) if self.scheme == "fir" else (u - self.anchor)[None]
        age = self.age + 1
        if age > self.period:
            self._cols *= self._fold.T
            age = 0
        # _cols is Fortran-ordered, so dgemm adds block.T @ coeffs to it in
        # place; dgemm also for rank 1, as threaded OpenBLAS dger was up to
        # 100x slower at 3143 points x 25 modes on a 2-core host
        dgemm(1.0, block.reshape(len(block), -1).T, self._coeffs[age], beta=1.0, c=self._cols,
              overwrite_c=1)
        self.anchor, self.step_index, self.age = u, self.step_index + 1, age


class DirectHistory(_Evaluator):
    """l1 or gl in Caputo form, anchor u^0:
    D u^n = sigma * sum_{j=0}^{n} w_j (u^{n-j} - u^0), w_0 = 1, where l1 has
    sigma = dt**-a / Gamma(2-a) and the weights of ``_l1_coefficients``, and
    gl has sigma = dt**-a and those of ``gl_coefficients``.  ``hist`` holds
    every sample so far less u^0, and ``rev`` the L = len(hist) + 1 weights
    reversed and contiguous, so step n contracts rev[L-1-n : L-1] @ hist[:n].
    ``push``, the only mutator, doubles ``hist`` when full and rebuilds
    ``rev`` to match; ``n_steps`` sizes both for a run of known length.
    Samples keep their dtype (real or complex), and ``rev`` is cast, exactly,
    to that dtype, so that a complex contraction casts no slice per step."""

    def __init__(self, scheme: str, alpha: float, dt: float, u0, n_steps: int = 1):
        self._table = {"l1": _l1_coefficients, "gl": gl_coefficients}.get(scheme)
        if self._table is None:
            raise ValueError(f"{scheme!r} is not a full-history rule (l1 or gl)")
        _check_order(alpha)
        _check_step(dt)
        self.scheme, self.alpha, self.dt = scheme, alpha, dt
        self.sigma = dt ** -alpha / math.gamma(2.0 - alpha) if scheme == "l1" else dt ** -alpha
        self.lag = self.sigma
        # [()] makes a scalar anchor a numpy scalar, cheap in per-step arithmetic
        self.anchor = _samples(u0)[()]
        self.hist = np.zeros((n_steps + 1,) + np.shape(self.anchor), dtype=self.anchor.dtype)
        self.rev = self._table(alpha, n_steps + 1)[::-1].astype(self.hist.dtype)

    def history_term(self):
        n, top = self.step_index + 1, len(self.rev) - 1
        return self.sigma * self.rev[top - n: top].dot(self.hist[:n])

    def push(self, u) -> None:
        k = self.step_index = self.step_index + 1
        if k == len(self.hist):
            self.hist = np.concatenate([self.hist, np.empty_like(self.hist)])
            self.rev = self._table(self.alpha, 2 * k)[::-1].astype(self.hist.dtype)
        self.hist[k] = u - self.anchor


def _l1_coefficients(alpha: float, n: int) -> np.ndarray:
    """L1 weights w_0 .. w_n in Caputo form, w_j = a_j - a_{j-1} with
    a_l = (l+1)**(1-alpha) - l**(1-alpha) and a_{-1} = 0, so cumsum(w) = a."""
    l = np.arange(n + 1, dtype=float)
    return np.diff((l + 1.0) ** (1.0 - alpha) - l ** (1.0 - alpha), prepend=0.0)


def gl_coefficients(p: float, n: int) -> np.ndarray:
    """Signed binomial weights c_m = (-1)^m C(p, m), m = 0..n, by the
    recurrence c_0 = 1, c_m = c_{m-1} * (1 - (p+1)/m)."""
    m = np.arange(1, n + 1, dtype=float)
    c = np.empty(n + 1)
    c[0] = 1.0
    c[1:] = np.cumprod(1.0 - (p + 1.0) / m)
    return c


# ---------------------------------------------------------------------------
# scalar steppers: each returns (value, state), the state advanced in place

def new_history(scheme: str, alpha: float, dt: float, u0, n_modes: int = 0):
    """Evaluator of l1, fir, fidr or gl (any case) holding only u^0; fir and
    fidr need ``n_modes``, the mode count (>= 1) of the kernel they will run on."""
    scheme = scheme.lower()
    if scheme in ("fir", "fidr"):
        return FastHistory(scheme, alpha, dt, u0, n_modes)
    return DirectHistory(scheme, alpha, dt, u0)


def _fast_step(scheme: str, state, soe: SoEApproximation, u_n):
    if getattr(state, "scheme", None) != scheme:
        raise ValueError(f"state built for {getattr(state, 'scheme', None)}, stepped as {scheme}")
    state.use_kernel(soe)
    return state.step(u_n), state


def fir_step(state: FastHistory, soe: SoEApproximation, u_n):
    """Integrated-by-parts fast rule (kernel t**-(1+a))."""
    return _fast_step("fir", state, soe, u_n)


def fidr_step(state: FastHistory, soe: SoEApproximation, u_n):
    """Increment-based fast rule (kernel t**-a)."""
    return _fast_step("fidr", state, soe, u_n)


def gl_step(state: DirectHistory, u_n, p: float):
    """Caputo fractional-difference rule of order p."""
    if getattr(state, "scheme", None) != "gl" or p != state.alpha:
        raise ValueError(f"state is not a gl state of order {p}")
    return state.step(u_n), state


def l1_weights(alpha: float, n_max: int) -> DirectHistory:
    """An empty l1 evaluator whose reversed table ``rev`` ends in at least
    the weights w_{n_max-1} .. w_0 that ``l1_step`` reads on paths of up
    to n_max steps."""
    return DirectHistory("l1", alpha, 1.0, 0.0, max(n_max - 2, 0))


def l1_step(weights: DirectHistory, buffer, dt: float) -> float:
    """Direct rule on the full history u^0..u^n (n = len(buffer) - 1):
    dt**-a / Gamma(2-a) * sum_{j<n} w_j (u^{n-j} - u^0), as rev[-n:] @ (u[1:] - u[0])."""
    _check_step(dt)
    u = np.asarray(buffer, dtype=float)
    n, rev = len(u) - 1, weights.rev
    if n < 1:
        raise ValueError("need at least two samples (one step)")
    if len(rev) < n or weights.scheme != "l1":
        raise ValueError(f"need an l1 table of {n} weights, have a {weights.scheme} one of {len(rev)}")
    sigma = dt ** -weights.alpha / math.gamma(2.0 - weights.alpha)
    return float(sigma * rev[-n:].dot(u[1:] - u[0]))


# ---------------------------------------------------------------------------
# independent reference values

def caputo_reference(family: str, alpha: float, t, sigma: float | None = None):
    """Fractional derivative of u = t**sigma or u = sin t at time t: a float,
    or an array for an array t.

    ``family="power"`` uses the exact rule for u = t**sigma:
    Gamma(sigma+1)/Gamma(sigma+1-alpha) * t**(sigma-alpha).  ``family="sin"``
    integrates u'(t-v) = cos(t-v) against v**-alpha as t**(1-alpha) times
    cos(t(1-r)) against r**-alpha on [0, 1], by the power-weight Gauss rules
    (which absorb the endpoint singularity) of 32 and 64 nodes.  It returns
    the 64-node value, or a ``ConstructionError`` unless the two agree to
    1e-10 relative at every t (they do not at a large t).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError("reference requires t > 0")
    if family == "power":
        if sigma is None:
            raise ValueError("power family needs the exponent sigma")
        val = math.gamma(sigma + 1.0) / math.gamma(sigma + 1.0 - alpha) * t ** (sigma - alpha)
    elif family == "sin":
        rules = [gauss_jacobi_power(n, -alpha, 1.0) for n in (32, 64)]
        coarse, val = (np.sum(r.weights * np.cos(np.multiply.outer(t, 1.0 - r.nodes)), axis=-1)
                       for r in rules)
        achieved = np.max(np.abs(val - coarse) / np.maximum(np.abs(val), 1e-300), initial=0.0)
        if not achieved <= 1e-10:
            raise ConstructionError(f"reference quadrature stalled at rel. {achieved:.2e}")
        val = t ** (1.0 - alpha) / math.gamma(1.0 - alpha) * val
    else:
        raise ValueError(f"unknown family {family!r}")
    return float(val) if val.ndim == 0 else val

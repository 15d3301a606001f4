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
"""
from __future__ import annotations

import math
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with step dt, n_steps steps, horizon = dt * n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one step")

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
    """Per-mode decay and the (rank x modes) block ``coeffs`` of
    modes <- decay*modes + coeffs.T @ block, the recurrence of
    ``FastHistory.push(u^n)``, the only mutator of modes.  fir has rank 2
    against block = [u^n, u^{n-1}], with gains phi - lam2 and lam2 at
    x = nodes*dt (exp(-x*r) integrated against 1 - r and r over [0, 1]);
    fidr has rank 1 against the increment u^n - u^{n-1}, so a constant
    sample leaves its modes exactly 0.  ``FastHistory`` checks ``scheme``.
    """
    x = nodes * dt
    decay = np.exp(-x)
    if scheme == "fir":
        gain2 = lam2(x)
        return decay, decay * dt * np.array([phi(x) - gain2, gain2])
    return decay, (phi(x) * decay)[None, :]


# ---------------------------------------------------------------------------
# evaluators: one class per rule, shared by the solver and the steppers

def _check_order(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("order must lie in (0, 1)")


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
    """D u^n = sigma * (u^n - anchor) + history_term() on scalar samples (a
    stream) or 1-D fields.  The history term is one ``weights @ state`` on
    contiguous operands and only reads; ``push(u^n)`` alone advances the
    state.  The solver calls ``known()``, the part of D u^n fixed before the
    solve, then ``push``; a stream calls ``step(u^n)``, which keeps the
    local term a difference."""

    step_index = 0

    def known(self):
        return self.history_term() - self.sigma * self.anchor

    def step(self, u):
        value = self.sigma * (u - self.anchor) + self.history_term()
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
    (a complex one is a ``ValueError``); anchor u^{n-1}.
    ``push(u^n)`` advances modes <- decay*modes + coeffs.T @ block (the
    recurrence of ``mode_step_coeffs``), zero at step 1; fir adds the
    boundary terms of its integration by parts, which use u^0.

    push views the modes as (modes x points), a stream as one point, scales
    them in place and then makes one BLAS rank update of their Fortran view:
    rank 2 against [u^n, u^{n-1}] for fir, rank 1 against the increment
    u^n - u^{n-1} for fidr.  Fields and streams share this one path."""

    def __init__(self, scheme: str, alpha: float, dt: float, u0, n_modes: int):
        self.beta = kernel_order(scheme, alpha)
        _check_order(alpha)
        self.scheme, self.alpha, self.dt, self.soe = scheme, alpha, dt, None
        self.u0 = self.anchor = _samples(u0, float)
        self.modes = np.zeros((n_modes,) + self.u0.shape)
        self.g1 = math.gamma(1.0 - alpha)
        self.sigma = dt ** -alpha / math.gamma(2.0 - alpha)

    def use_kernel(self, soe: SoEApproximation) -> None:
        """Run on ``soe``, a kernel of order ``beta``; its recurrence
        coefficients are built once."""
        if soe is self.soe:
            return
        if soe.n_modes != len(self.modes):
            raise ValueError("mode count of state and kernel disagree")
        if not math.isclose(soe.beta, self.beta, rel_tol=1e-12):
            raise ValueError(f"{self.scheme} of order {self.alpha} needs a kernel of "
                             f"order {self.beta}, got {soe.beta}")
        decay, self.coeffs = mode_step_coeffs(self.scheme, soe.nodes, self.dt)
        self.decay = decay[:, None]
        # the history term's weights, with 1/Gamma(1-alpha), and fir's -alpha, folded in
        self.hist_weights = soe.weights * ((-self.alpha if self.scheme == "fir" else 1.0) / self.g1)
        self.soe = soe

    def history_term(self):
        hist = self.hist_weights @ self.modes
        if self.scheme == "fir":
            # the boundary terms of the integration by parts
            t_n = (self.step_index + 1) * self.dt
            hist += self.anchor * (self.dt ** -self.alpha / self.g1)
            hist -= self.u0 * (t_n ** -self.alpha / self.g1)
        return hist

    def push(self, u) -> None:
        u = _samples(u, float)
        block = np.array((u, self.anchor)) if self.scheme == "fir" else (u - self.anchor)[None]
        modes = self.modes.reshape(len(self.modes), -1)   # a view, (modes x points)
        modes *= self.decay
        # modes.T is Fortran-ordered, so dgemm adds block.T @ coeffs to it in
        # place; dgemm also for rank 1, as threaded OpenBLAS dger was up to
        # 100x slower at 3143 points x 25 modes on a 2-core host
        dgemm(1.0, block.reshape(len(block), -1).T, self.coeffs, beta=1.0, c=modes.T, overwrite_c=1)
        self.anchor, self.step_index = u, self.step_index + 1


class DirectHistory(_Evaluator):
    """l1 or gl in Caputo form, anchor u^0:
    D u^n = sigma * sum_{j=0}^{n} w_j (u^{n-j} - u^0), w_0 = 1, where l1 has
    sigma = dt**-a / Gamma(2-a) and the weights of ``_l1_coefficients``, and
    gl has sigma = dt**-a and those of ``gl_coefficients``.  ``hist`` holds
    every sample so far less u^0, and ``rev`` the L = len(hist) + 1 weights
    reversed and contiguous, so step n contracts rev[L-1-n : L-1] @ hist[:n].
    ``push``, the only mutator, doubles ``hist`` when full and rebuilds
    ``rev`` to match; ``n_steps`` sizes both for a run of known length.
    Samples keep their dtype (real or complex)."""

    def __init__(self, scheme: str, alpha: float, dt: float, u0, n_steps: int = 1):
        self._table = {"l1": _l1_coefficients, "gl": gl_coefficients}.get(scheme)
        if self._table is None:
            raise ValueError(f"{scheme!r} is not a full-history rule (l1 or gl)")
        _check_order(alpha)
        self.scheme, self.alpha, self.dt = scheme, alpha, dt
        self.sigma = dt ** -alpha / math.gamma(2.0 - alpha) if scheme == "l1" else dt ** -alpha
        # [()] makes a scalar anchor a numpy scalar, cheap in per-step arithmetic
        self.anchor = _samples(u0)[()]
        self.hist = np.zeros((n_steps + 1,) + np.shape(self.anchor), dtype=self.anchor.dtype)
        self.rev = self._table(alpha, n_steps + 1)[::-1].copy()

    def history_term(self):
        n, top = self.step_index + 1, len(self.rev) - 1
        return self.sigma * (self.rev[top - n: top] @ self.hist[:n])

    def push(self, u) -> None:
        k = self.step_index = self.step_index + 1
        if k == len(self.hist):
            self.hist = np.concatenate([self.hist, np.empty_like(self.hist)])
            self.rev = self._table(self.alpha, 2 * k)[::-1].copy()
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
    """Evaluator of l1, fir, fidr or gl (any case) holding only u^0."""
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
    u = np.asarray(buffer, dtype=float)
    n, rev = len(u) - 1, weights.rev
    if n < 1:
        raise ValueError("need at least two samples (one step)")
    if len(rev) < n or weights.scheme != "l1":
        raise ValueError(f"need an l1 table of {n} weights, have a {weights.scheme} one of {len(rev)}")
    sigma = dt ** -weights.alpha / math.gamma(2.0 - weights.alpha)
    return float(sigma * (rev[-n:] @ (u[1:] - u[0])))


# ---------------------------------------------------------------------------
# independent reference values

def caputo_reference(family: str, alpha: float, t: float, sigma: float | None = None) -> float:
    """Fractional derivative of u = t**sigma or u = sin t at time t.

    ``family="power"`` uses the exact rule for u = t**sigma:
    Gamma(sigma+1)/Gamma(sigma+1-alpha) * t**(sigma-alpha).  ``family="sin"``
    integrates u'(t-v) = cos(t-v) against v**-alpha with a power-weight
    Gauss rule (which absorbs the endpoint singularity), doubling the
    rule size up to 64 until two consecutive sizes agree to 1e-10
    relative, else (at a large t) a ``ConstructionError``.
    """
    if t <= 0:
        raise ValueError("reference requires t > 0")
    if family == "power":
        if sigma is None:
            raise ValueError("power family needs the exponent sigma")
        return math.gamma(sigma + 1.0) / math.gamma(sigma + 1.0 - alpha) * t ** (sigma - alpha)
    if family != "sin":
        raise ValueError(f"unknown family {family!r}")
    prev = None
    achieved = math.inf
    for n in (8, 16, 32, 64):
        rule = gauss_jacobi_power(n, -alpha, t)
        val = float(np.sum(rule.weights * np.cos(t - rule.nodes))) / math.gamma(1.0 - alpha)
        if prev is not None:
            achieved = abs(val - prev) / max(abs(val), 1e-300)
            if achieved <= 1e-10:
                return val
        prev = val
    raise ConstructionError(f"reference quadrature stalled at rel. {achieved:.2e}")

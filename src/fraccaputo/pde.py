"""1D time-fractional diffusion with nonreflecting fractional boundaries.

The problem solved is

    D^a u = u_xx + f           on (x_lo, x_hi), order a in (0, 1),
    u_x   =  D^{a/2} u         at x_lo,
    u_x   = -D^{a/2} u         at x_hi,

discretized implicitly in space: at every step all history-mode and
source contributions are known, so the update is one tridiagonal solve
against a matrix that is factored once per run.
The time operator D is pluggable (l1, fir, fidr, gl); the boundary rows
carry their own order-a/2 evaluators.  The source f(x, t, u) sees the
field lagged one step, so a reaction term needs no Newton iteration.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .quadrature import _check_count, _check_name, _check_order, _check_positive, _real
from .schemes import SCHEMES, DirectHistory, FastHistory, TimeGrid, kernel_order
from .soe import SoEParams, build_soe

__all__ = [
    "SpaceGrid",
    "DiffusionProblem",
    "SolveReport",
    "solve",
    "manufactured_problem",
    "nonlinear_problem",
]


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform spatial grid with n_cells cells on [x_lo, x_hi], finite ends."""

    x_lo: float
    x_hi: float
    n_cells: int

    def __post_init__(self) -> None:
        _check_count("n_cells", self.n_cells, 2)
        if not -math.inf < _real("x_lo", self.x_lo) < _real("x_hi", self.x_hi) < math.inf:
            raise ValueError(f"need finite ends x_lo < x_hi, got {self.x_lo!r}, {self.x_hi!r}")

    @classmethod
    def from_spacing(cls, x_lo: float, x_hi: float, h: float) -> "SpaceGrid":
        """Grid whose spacing is as close to h as an integer cell count
        allows; a ValueError for h not positive, leaving under 2 cells or
        so small that the cell count is not finite."""
        _check_positive("spacing h", h)
        cells = (x_hi - x_lo) / h
        if not math.isfinite(cells):
            raise ValueError(f"(x_hi - x_lo) / h = {cells} is not a finite cell count")
        return cls(x_lo, x_hi, round(cells))

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    def points(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_cells + 1)


@dataclass(frozen=True)
class DiffusionProblem:
    """Problem data: order, domain, initial data, source, optional exact.

    ``source(x, t_n, u)`` is the forcing at step n, given the grid points,
    the step's time and the field of step n - 1.
    """

    alpha: float
    x_lo: float
    x_hi: float
    initial: Callable[[np.ndarray], np.ndarray]
    source: Callable[[np.ndarray, float, np.ndarray], np.ndarray]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self) -> None:
        _check_order(self.alpha)


@dataclass
class SolveReport:
    """Outcome of one run: grids, mode counts, error norms, timing."""

    scheme: str
    tgrid: TimeGrid
    sgrid: SpaceGrid
    n_modes_interior: int
    n_modes_boundary: int
    kernel_bound_interior: Optional[float]
    kernel_bound_boundary: Optional[float]
    global_error: Optional[float]
    related_error: Optional[float]
    wall_time: float
    snapshots: list = field(default_factory=list)

    def to_dict(self, include_snapshots: bool = False) -> dict:
        g, s = self.tgrid, self.sgrid
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("tgrid", "sgrid", "snapshots")}
        d.update(dt=g.dt, n_steps=g.n_steps, horizon=g.horizon,
                 x_lo=s.x_lo, x_hi=s.x_hi, n_cells=s.n_cells, h=s.h)
        if include_snapshots:
            d["snapshots"] = [{"t": t, "values": u.tolist()} for t, u in self.snapshots]
        return d


def _step_matrix(n_pts: int, h: float, sigma: float, sigma_b: float) -> tuple:
    """The sub-, main and super-diagonal (dl, d, du) of the step matrix."""
    d = np.full(n_pts, sigma + 2.0 / h ** 2)
    d[[0, -1]] += (2.0 / h) * sigma_b
    dl, du = np.full((2, n_pts - 1), -1.0 / h ** 2)
    dl[-1] = du[0] = -2.0 / h ** 2
    # every row carries off-diagonal mass exactly 2/h**2, so sigma > 0 makes the
    # matrix strictly diagonally dominant, unless a long dt rounds sigma away
    if not np.all(d > 2.0 / h ** 2):
        raise ValueError(f"time term {sigma:.3g} is lost beside 2/h**2; shorten dt or widen h")
    return dl, d, du


def _factor(dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple:
    """LU factors (``dgttrf``, partial pivoting) of the tridiagonal (dl, d, du)."""
    *lu, info = dgttrf(dl, d, du)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal step matrix is singular (dgttrf info {info})")
    return tuple(lu)


def solve_banded(lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """The solution of A u = rhs (``dgttrs``) for the factors ``lu`` of A from
    ``_factor``; rhs, a float64 vector, is overwritten and returned."""
    u, info = dgttrs(*lu, rhs, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgttrs rejected argument {-info}")
    return u


def solve(problem: DiffusionProblem, tgrid: TimeGrid, sgrid: SpaceGrid, scheme: str,
          soe_params: Optional[SoEParams] = None, *,
          snapshot_stride: Optional[int] = None) -> SolveReport:
    """Run the implicit stepper: the tridiagonal matrix is factored once,
    then each step is one ``solve_banded`` against those factors.

    Fast schemes build two kernels from the same partition parameters:
    order alpha for every grid point and order alpha/2 for the two
    boundary evaluators.  Error norms are filled only when the problem
    carries an exact solution.  A snapshot is kept every ``snapshot_stride``
    steps (an integer >= 1; by default a tenth of the run) and at the last.
    The problem's callables see one grid array for the whole run, which
    must not change while the run holds it.
    """
    _check_name("scheme", scheme, SCHEMES)
    if snapshot_stride is None:
        snapshot_stride = max(1, tgrid.n_steps // 10)
    _check_count("snapshot_stride", snapshot_stride, 1)
    if scheme in ("fir", "fidr") and soe_params is None:
        raise ValueError(f"scheme {scheme!r} needs kernel partition parameters")
    if scheme in ("fir", "fidr") and tgrid.n_steps < 2:
        raise ValueError(f"scheme {scheme!r} needs at least 2 steps: with one step "
                         f"its kernel window [dt, T] = [{tgrid.dt!r}, {tgrid.horizon!r}] is empty")
    if not (math.isclose(problem.x_lo, sgrid.x_lo) and math.isclose(problem.x_hi, sgrid.x_hi)):
        raise ValueError("space grid does not cover the problem domain")

    alpha = problem.alpha
    dt, n_steps, h = tgrid.dt, tgrid.n_steps, sgrid.h
    x = sgrid.points().copy()   # linspace returns a view; the copy owns its data
    x.flags.writeable = False   # one grid, owned and read-only, for every call below
    u0 = _real("initial data", problem.initial(x))
    if u0.shape != x.shape:
        raise ValueError(f"initial data of shape {u0.shape} on a grid of shape {x.shape}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial data is not finite on the grid")
    if problem.exact is not None:
        mismatch = np.max(np.abs(np.asarray(problem.exact(x, 0.0)) - u0))
        if not mismatch <= 1e-10 * max(1.0, np.max(np.abs(u0))):  # a NaN fails too
            raise ValueError("exact solution disagrees with initial data at t=0")

    evaluators = []
    for order, start in ((alpha, u0), (alpha / 2.0, u0[[0, -1]])):
        if scheme in ("fir", "fidr"):
            kernel = build_soe(kernel_order(scheme, order), soe_params, dt, tgrid.horizon)
            evaluator = FastHistory(scheme, order, dt, start, kernel.n_modes)
            evaluator.use_kernel(kernel)
        else:
            evaluator = DirectHistory(scheme, order, dt, start, n_steps)
        evaluators.append(evaluator)
    interior, boundary = evaluators
    soe_i, soe_b = interior.soe, boundary.soe

    lu = _factor(*_step_matrix(len(x), h, interior.sigma, boundary.sigma))

    snapshots = [(0.0, u0.copy())]

    err_sq_sum = 0.0
    exact_sq_sum = 0.0
    u = u0.copy()
    t_start = time.perf_counter()
    for n in range(1, n_steps + 1):
        t_n = n * dt
        rhs = interior.known()   # a fresh array, so the rhs is assembled in it
        r_b = boundary.known()
        np.subtract(problem.source(x, t_n, u), rhs, out=rhs)
        rhs[0] -= (2.0 / h) * r_b[0]
        rhs[-1] -= (2.0 / h) * r_b[1]
        # LAPACK does not check its input, so a blow-up surfaces here as a
        # numerical error; a NaN or an infinity reaches the max or the min
        u = solve_banded(lu, rhs)
        if not (math.isfinite(u.max()) and math.isfinite(u.min())):
            raise FloatingPointError(f"{scheme} field is not finite at step {n} (t = {t_n:g})")
        interior.push(u)
        boundary.push(u[::len(u) - 1])   # the view (u_0, u_P)
        if problem.exact is not None:
            err_sq, ex_sq = _norm_terms(u, problem.exact(x, t_n), dt)
            err_sq_sum += err_sq
            exact_sq_sum += ex_sq
        if n % snapshot_stride == 0 or n == n_steps:
            snapshots.append((t_n, u.copy()))
    wall = time.perf_counter() - t_start

    g_err = rel_err = None
    if problem.exact is not None:
        g_err = math.sqrt(err_sq_sum)
        # related error is undefined against an identically-zero solution
        rel_err = g_err / math.sqrt(exact_sq_sum) if exact_sq_sum > 0.0 else None

    return SolveReport(
        scheme=scheme,
        tgrid=tgrid,
        sgrid=sgrid,
        n_modes_interior=soe_i.n_modes if soe_i is not None else 0,
        n_modes_boundary=soe_b.n_modes if soe_b is not None else 0,
        kernel_bound_interior=soe_i.bound if soe_i is not None else None,
        kernel_bound_boundary=soe_b.bound if soe_b is not None else None,
        global_error=g_err,
        related_error=rel_err,
        wall_time=wall,
        snapshots=snapshots,
    )


# ---------------------------------------------------------------------------
# stock problems

def manufactured_problem(alpha: float) -> DiffusionProblem:
    """Linear test problem on [0, pi] with a known solution.

    The solution x**4 (pi-x)**4 [exp(-x) t**(3+alpha) + 1] vanishes with
    its gradient at both endpoints, so the fractional boundary relations
    are met exactly, and the forcing below is the residual D^a u - u_xx.
    """
    _check_order(alpha)
    pi = math.pi
    g4a = math.gamma(4.0 + alpha)

    def grid_values(x):
        ex = np.exp(-x)
        q = x ** 4 * (pi - x) ** 4
        s = x ** 2 * (pi - x) ** 2
        poly = (
            x ** 2 * (56.0 - 16.0 * x + x ** 2)
            - 2.0 * pi * x * (28.0 - 12.0 * x + x ** 2)
            + pi ** 2 * (12.0 - 8.0 * x + x ** 2)
        )
        return (g4a / 6.0 * q * ex, s * ex * poly,
                4.0 * s * (3.0 * pi ** 2 - 14.0 * pi * x + 14.0 * x ** 2), q * ex, q)

    grid_x, grid_factors = None, None

    def factors(x):
        """x-only factors (a, b, c, q_e, q) of source = a t**3 - (b t**(3+alpha)
        + c) and exact = q_e t**(3+alpha) + q.  They are kept for the last
        grid only if it is a read-only array that owns its data, such as the
        one ``solve`` passes, and reused while that same array stays
        read-only, which must not change meanwhile; any other x computes
        them afresh."""
        nonlocal grid_x, grid_factors
        if not (x is grid_x and not x.flags.writeable):
            grid_factors = grid_values(np.asarray(x, dtype=float))
            owned = isinstance(x, np.ndarray) and x.flags.owndata and not x.flags.writeable
            grid_x = x if owned else None
        return grid_factors

    # in place, in the order of q_e t**(3+alpha) + q and a t**3 - (b t**(3+alpha) + c)
    def exact(x, t):
        *_, q_e, q = factors(x)
        out = q_e * t ** (3.0 + alpha)
        out += q
        return out

    def source(x, t, u):
        a, b, c, _, _ = factors(x)
        tail = b * t ** (3.0 + alpha)
        tail += c
        out = a * t ** 3
        out -= tail
        return out

    return DiffusionProblem(alpha, 0.0, pi, lambda x: exact(x, 0.0), source, exact)


def nonlinear_problem(alpha: float, x_lo: float = -1.0, x_hi: float = 1.0) -> DiffusionProblem:
    """Logistic-reaction problem with two Gaussian bumps and no exact solution.

    The reaction statement fixes no domain; the default [-1, 1] covers
    both bumps symmetrically and can be overridden.
    """

    def initial(x):
        return np.exp(-10.0 * (x - 0.5) ** 2) + np.exp(-10.0 * (x + 0.5) ** 2)

    def source(x, t, u):
        return -u * (1.0 - u)

    return DiffusionProblem(alpha, x_lo, x_hi, initial, source, None)


# ---------------------------------------------------------------------------
# error norms

def _norm_terms(u: np.ndarray, u_ex, dt: float) -> tuple:
    """One step's terms dt * max|u - u_ex|**2 and dt * max|u_ex|**2 of the
    global error and of the exact solution's norm."""
    u_ex = np.asarray(u_ex, dtype=float)
    work = np.subtract(u, u_ex)
    np.abs(work, out=work)
    # max|u_ex| without a second buffer; a NaN in u_ex reaches the max
    ex_max = max(u_ex.max(), -u_ex.min())
    return dt * float(work.max()) ** 2, dt * float(ex_max) ** 2

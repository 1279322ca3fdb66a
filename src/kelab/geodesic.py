"""Kahler-Einstein ODE and Monge-Ampere geodesics in the invariant reduction.

Three solvers live here:

* ``solve_ke``: damped Newton for u'' = 2 e^{s-u} / int e^{s-u} ds.  The
  acceptance bar (1e-8 against the closed-form round metric) is far below
  what a second-order stencil delivers, so this solver uses fourth-order
  interior stencils, a tail-corrected mass integral and asymptotic Robin
  closures u' = u'' / u' + u'' = 2 at the truncated ends (exact for the true
  asymptotics up to O(e^{-2|s|})).  The ODE has a two-parameter symmetry
  group (additive constants and log-scalings z -> a z); it is gauge-fixed by
  pinning u(0) = 2 log 2 and u'(0) = 1, which select the round metric.

* ``legendre_geodesic``: the exact weak geodesic.  Invariant geodesics are
  linear in the Legendre-dual (symplectic) potential, which collapses to the
  horizontal-transport form u_t(s) = (1-t) u0(sigma0) + t u1(sigma1) where
  u0'(sigma0) = u1'(sigma1) and (1-t) sigma0 + t sigma1 = s.  The single
  monotone root lies between s and phi^{-1}(s), phi the matching map of the
  endpoint slopes; a safeguarded Newton solves all (t, s) nodes at once
  inside that bracket and stops a node once the fiber value, which is
  stationary in the root, is converged.

* ``solve_epsilon_geodesic``: damped Newton on the space-time system
  u_tt u_ss - u_ts^2 = eps h''(s), second-order tensor stencils, Dirichlet
  rows in t, slope clamps in s (the outermost columns ride the linear
  asymptotic extension of the adjacent node), and a convexity guard in the
  line search.  Its Jacobian, the linearisation of u_tt u_ss - u_ts^2, is
  formed per step from four 1-D stencils: Kronecker products held across
  steps would raise peak memory next to the lagged LU.  Its linear solves
  are Newton-Krylov with a lagged factorisation: one sparse LU, in a
  fill-reducing minimum-degree order, right-preconditions GMRES on later
  Jacobians (and on the next epsilon of a sweep) until GMRES needs more
  than ``_KRYLOV_CAP`` iterations.  GMRES stops on the true residual, the
  test a step must pass.  A factor built at the degenerate exact-geodesic
  start preconditions nothing later and is released after its own step.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import ConvergenceError, ValidationError
from .geometry import (
    FiberGeometry,
    PotentialSpline,
    ReducedPotential,
    SGrid,
    evaluate_potential,
    evaluate_slope,
    fiber_geometry,
    fubini_study_potential,
    second_derivative,
    time_derivatives,
    trapezoid_weights,
)
from .serialize import dump_json, format_floats, load_json

_PIN_U0 = 2.0 * math.log(2.0)

# one-sided first/second derivative stencils, fourth-order
_D1_EDGE = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D2_EDGE = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0

# GMRES iterations (one restart cycle) a lagged factor may take on a Newton
# step before it is dropped and the current Jacobian is factored afresh
_KRYLOV_CAP = 30


def _interp_row(xs: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Weights w with sum w_j f(x_j) = f^{(order)}(x0), exact for deg < len(xs)."""
    m = len(xs)
    v = np.vander(xs - x0, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(v, rhs)


def _quad_weights_tail(grid: SGrid) -> np.ndarray:
    """Trapezoid weights plus the exponential tail corrections rho(s_end)
    (the integrand e^{s-u} decays like e^{-|s|} with unit rate)."""
    c = trapezoid_weights(grid.n, grid.ds)
    c[0] += 1.0
    c[-1] += 1.0
    return c


def _ode_rows(v: np.ndarray, ds: float) -> np.ndarray:
    """v'' at the interior nodes: fourth-order inside, three-point at the
    nodes next to the ends."""
    d2 = np.empty(v.size - 2)
    d2[1:-1] = (
        -v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]
    ) / (12.0 * ds * ds)
    d2[0] = (v[0] - 2.0 * v[1] + v[2]) / (ds * ds)
    d2[-1] = (v[-3] - 2.0 * v[-2] + v[-1]) / (ds * ds)
    return d2


def ke_residual(u: ReducedPotential) -> np.ndarray:
    """Residual of u'' = 2 e^{s-u}/Q at the interior nodes (fourth-order)."""
    grid = u.grid
    rho = np.exp(grid.nodes() - u.values)
    q = float(_quad_weights_tail(grid) @ rho)
    return _ode_rows(u.values, grid.ds) - 2.0 * rho[1:-1] / q


def _default_ke_guess(grid: SGrid) -> np.ndarray:
    # convex, slopes (0, 2), u(0) = 2, u'(0) = 1; generic (non-KE) start
    s = grid.nodes()
    return s + np.sqrt(s * s + 4.0)


@np.errstate(over="ignore", invalid="ignore")
def solve_ke(
    grid: SGrid,
    tol: float = 1e-10,
    initial: ReducedPotential | None = None,
    max_iter: int = 50,
    full_output: bool = False,
):
    """Solve the reduced Kahler-Einstein ODE by damped Newton.

    The unknown is stored as a correction v = u - b against the analytic
    round background b = 2 log(1 + e^s), so that second-difference round-off
    does not scale with the linear growth of u; b', b'' enter in closed form.
    Returns the potential (and an info dict when ``full_output``).  Raises
    ConvergenceError if the residual is not finite at the start (overflow) or
    does not reach ``tol`` in ``max_iter`` damped steps.
    """
    if not tol > 0.0:  # NaN included
        raise ValidationError("tol must be positive")
    s = grid.nodes()
    n = grid.n
    ds = grid.ds
    cq = _quad_weights_tail(grid)
    sig = 1.0 / (1.0 + np.exp(-s))
    b = 2.0 * np.logaddexp(0.0, s)
    bp = 2.0 * sig
    bpp = 2.0 * sig * (1.0 - sig)
    if initial is not None:
        v = np.array(initial.values) - b
    else:
        v = _default_ke_guess(grid) - b

    # gauge rows: 6-point interpolation of v and v' at s = 0
    # (b(0) = 2 log 2 and b'(0) = 1 absorb the pin targets exactly)
    i0 = int(np.searchsorted(s, 0.0))
    start = min(max(i0 - 3, 2), n - 8)
    xs = s[start : start + 6]
    pin_rows = (start + 2, start + 3)  # replace two interior ODE rows
    w_val = _interp_row(xs, 0.0, 0)
    w_der = _interp_row(xs, 0.0, 1)

    # Robin closures over the outermost six nodes: u' - u'' = 0 on the left,
    # u' + u'' = 2 on the right (mirrored stencils)
    row_l = -_D2_EDGE / (ds * ds)
    row_l[:5] += _D1_EDGE / ds
    row_r = _D2_EDGE[::-1] / (ds * ds)
    row_r[1:] -= _D1_EDGE[::-1] / ds
    robin_l_const = float(bp[0] - bpp[0])
    robin_r_const = float(bp[-1] + bpp[-1]) - 2.0
    # the ODE rows: every interior row but the two the gauge pins take
    ode = np.ones(n, dtype=bool)
    ode[[0, n - 1, *pin_rows]] = False

    # the Jacobian's constant part: ODE stencils, Robin rows and pin rows;
    # (row, first column, weights) of the rows that are not five-point
    five = np.nonzero(ode[2:-2])[0] + 2
    d2_4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * ds * ds)
    d2_3 = np.array([1.0, -2.0, 1.0]) / (ds * ds)
    short = [(1, 0, d2_3), (n - 2, n - 3, d2_3), (0, 0, row_l), (n - 1, n - 6, row_r),
             (pin_rows[0], start, w_val), (pin_rows[1], start, w_der)]
    rows = np.concatenate([np.repeat(five, 5)] + [np.full(w.size, i) for i, _, w in short])
    cols = np.concatenate([(five[:, None] + np.arange(-2, 3)).ravel()]
                          + [c + np.arange(w.size) for _, c, w in short])
    vals = np.concatenate([np.tile(d2_4, five.size)] + [w for _, _, w in short])
    stencil = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))

    def system(vv: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        rho = np.exp(s - b - vv)
        q = float(cq @ rho)
        g = np.empty(n)
        g[1:-1] = _ode_rows(vv, ds) + bpp[1:-1] - 2.0 * rho[1:-1] / q
        g[0] = float(row_l @ vv[:6]) + robin_l_const
        g[-1] = float(row_r @ vv[-6:]) + robin_r_const
        g[pin_rows[0]] = float(w_val @ vv[start : start + 6])
        g[pin_rows[1]] = float(w_der @ vv[start : start + 6])
        return g, rho, q

    def jacobian(rho: np.ndarray, q: float):
        jac = stencil + sp.diags(np.where(ode, 2.0 * rho / q, 0.0))  # CSC
        # rank-one part from the mass integral Q(u)
        r = np.where(ode, -2.0 * rho / (q * q), 0.0)
        return jac, r, cq * rho

    history = []
    g, rho, q = system(v)
    res = float(np.max(np.abs(g)))
    if not math.isfinite(res):
        raise ConvergenceError(f"KE residual is not finite ({res}) at the start")
    history.append(res)
    it = 0
    while res > tol and it < max_iter:
        band, r, qvec = jacobian(rho, q)
        lu = splu(band)
        x = lu.solve(-g)
        y = lu.solve(r)
        denom = 1.0 + float(qvec @ y)
        delta = x - y * (float(qvec @ x) / denom)
        alpha = 1.0
        while alpha > 2.0 ** -40:
            cand = v + alpha * delta
            g_new, rho_new, q_new = system(cand)
            res_new = float(np.max(np.abs(g_new)))
            if res_new < (1.0 - 1e-4 * alpha) * res:
                v, g, rho, q, res = cand, g_new, rho_new, q_new, res_new
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"KE Newton stalled at residual {res:.3e} (iteration {it})"
            )
        history.append(res)
        it += 1
    if res > tol:
        raise ConvergenceError(
            f"KE Newton did not reach tol={tol:.1e} in {max_iter} iterations "
            f"(residual {res:.3e})"
        )
    out = ReducedPotential(grid, b + v)
    if full_output:
        return out, {"iterations": it, "residual": res, "history": history}
    return out


# ---------------------------------------------------------------------------
# exact weak geodesic via the Legendre-dual linear structure


def _legendre_fibers(
    u0: ReducedPotential, u1: ReducedPotential, t: np.ndarray
) -> np.ndarray:
    """Exact-geodesic fibers at the interior times t, shape (len(t), n).

    At each (t, s) the root sigma0 = x of G(x) = u0'(x) - u1'((s - (1-t) x)/t)
    lies between s and phi^{-1}(s), phi the increasing map with
    u1'(phi(x)) = u0'(x), where G has opposite signs.  A safeguarded Newton
    runs inside that bracket on the still-active nodes.  The fiber value is
    stationary in sigma0, so its error is about (1-t) G^2 / (2 G'); a node
    stops when (1-t) G^2 / G' <= 1e-18, where a step-size test would stall
    in the tails, in which both slopes saturate.
    """
    if u0.grid != u1.grid:
        raise ValidationError("geodesic endpoints must share a grid")
    u0.validate()
    u1.validate()
    grid = u0.grid
    s = grid.nodes()
    sp0 = PotentialSpline(u0)
    sp1 = PotentialSpline(u1)

    # phi^{-1}(s): u0' is strictly increasing, bisect to near machine precision
    target = evaluate_slope(u1, s, sp1)
    span = grid.s_max - grid.s_min
    lo = np.full(grid.n, grid.s_min - span)
    hi = np.full(grid.n, grid.s_max + span)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = evaluate_slope(u0, mid, sp0) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    inverse = 0.5 * (lo + hi)

    tt = np.repeat(t, grid.n)
    ss = np.tile(s, len(t))
    pp = np.tile(inverse, len(t))
    lo = np.minimum(ss, pp)
    hi = np.maximum(ss, pp)
    x = (1.0 - tt) * ss + tt * pp
    active = np.arange(x.size)
    for _ in range(64):
        xa, ta = x[active], tt[active]
        sigma1 = (ss[active] - (1.0 - ta) * xa) / ta
        g = evaluate_slope(u0, xa, sp0) - evaluate_slope(u1, sigma1, sp1)
        dg = sp0(xa, nu=2) + (1.0 - ta) / ta * sp1(sigma1, nu=2)
        done = (1.0 - ta) * g * g <= 1e-18 * np.maximum(dg, 0.0)
        lo[active] = lo_a = np.where(g < 0.0, xa, lo[active])
        hi[active] = hi_a = np.where(g < 0.0, hi[active], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = xa - g / dg
        inside = np.isfinite(step) & (step > lo_a) & (step < hi_a)
        x[active] = np.where(done, xa, np.where(inside, step, 0.5 * (lo_a + hi_a)))
        active = active[~done]
        if active.size == 0:
            break
    else:
        raise ConvergenceError(
            f"Legendre root solve left {active.size} nodes unconverged after 64 sweeps"
        )
    sigma1 = (ss - (1.0 - tt) * x) / tt
    vals = (1.0 - tt) * evaluate_potential(u0, x, sp0) + tt * evaluate_potential(
        u1, sigma1, sp1
    )
    return vals.reshape(len(t), grid.n)


def legendre_geodesic(
    u0: ReducedPotential, u1: ReducedPotential, t: float
) -> ReducedPotential:
    """Fiber at time t of the exact weak geodesic between u0 and u1."""
    if u0.grid != u1.grid:
        raise ValidationError("geodesic endpoints must share a grid")
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"t must lie in [0, 1], got {t}")
    if t == 0.0:
        return ReducedPotential(u0.grid, np.array(u0.values))
    if t == 1.0:
        return ReducedPotential(u0.grid, np.array(u1.values))
    return ReducedPotential(u0.grid, _legendre_fibers(u0, u1, np.array([t]))[0])


# ---------------------------------------------------------------------------
# space-time objects


@dataclass(frozen=True)
class SpacetimePotential:
    """Solution u(t, s) on the tensor grid, one fiber per row.

    The path owns its time derivatives ``phi_p``/``phi_pp`` (one second-order
    differencing of the whole array) and the ``FiberGeometry`` of each fiber;
    both caches are filled on first use, so a path fresh out of the solver
    holds only its values.  The reference form of the epsilon-equation is
    the round metric on the path's grid (``background``).
    """

    t_grid: np.ndarray
    grid: SGrid
    values: np.ndarray        # shape (m, n)
    epsilon: float
    _geometries: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)
        if v.shape != (t.size, self.grid.n):
            raise ValidationError(f"values shape {v.shape} does not match grids")
        if self.epsilon < 0.0:
            raise ValidationError("epsilon must be nonnegative")

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    @cached_property
    def background(self) -> ReducedPotential:
        """The reference round metric omega of eps * omega."""
        return fubini_study_potential(self.grid)

    @cached_property
    def _time_derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        d1, d2 = time_derivatives(self.values, self.dt)
        d1.setflags(write=False)
        d2.setflags(write=False)
        return d1, d2

    @property
    def phi_p(self) -> np.ndarray:
        """Velocity phi' = u_t on every node, shape (m, n)."""
        return self._time_derivatives[0]

    @property
    def phi_pp(self) -> np.ndarray:
        """Acceleration phi'' = u_tt on every node, shape (m, n)."""
        return self._time_derivatives[1]

    def fiber(self, j: int) -> ReducedPotential:
        return ReducedPotential(self.grid, np.array(self.values[j]))

    def geometry(self, j: int) -> FiberGeometry:
        """Fiber j's geometry, built on first use and kept."""
        if j not in self._geometries:
            self._geometries[j] = fiber_geometry(self.fiber(j))
        return self._geometries[j]

    def time_index(self, t: float) -> int:
        j = int(np.argmin(np.abs(self.t_grid - t)))
        if abs(self.t_grid[j] - t) > 1e-9:
            raise ValidationError(f"t={t} is not on the time grid")
        return j


def legendre_path(u0: ReducedPotential, u1: ReducedPotential, m: int) -> SpacetimePotential:
    """Exact geodesic sampled on m uniform time slices (epsilon = 0)."""
    if m < 3:
        raise ValidationError("need at least 3 time samples")
    t_grid = np.linspace(0.0, 1.0, m)
    rows = np.empty((m, u0.grid.n))
    rows[0] = u0.values
    rows[-1] = u1.values
    rows[1:-1] = _legendre_fibers(u0, u1, t_grid[1:-1])
    return SpacetimePotential(t_grid, u0.grid, rows, 0.0)


def _spacetime_derivatives(U: np.ndarray, dt: float, ds: float):
    """Central u_tt, u_ss and u_ts at the interior nodes, shape (m-2, n-2)."""
    dtt = (U[2:, 1:-1] - 2.0 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / (dt * dt)
    dss = (U[1:-1, 2:] - 2.0 * U[1:-1, 1:-1] + U[1:-1, :-2]) / (ds * ds)
    dts = (U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]) / (4.0 * dt * ds)
    return dtt, dss, dts


def monge_ampere_residual(spacetime: SpacetimePotential) -> np.ndarray:
    """u_tt u_ss - u_ts^2 - eps h'' at interior nodes, shape (m-2, n-2)."""
    ds = spacetime.grid.ds
    hpp = second_derivative(spacetime.background.values, ds)
    dtt, dss, dts = _spacetime_derivatives(spacetime.values, spacetime.dt, ds)
    return dtt * dss - dts * dts - spacetime.epsilon * hpp[1:-1]


def _stencils_1d(mi: int, ni: int):
    """Unscaled second and central first differences T2, T1 over the interior
    times (the Dirichlet rows drop out) and S2, S1 over the interior columns
    (each clamped outer column folds onto the interior column next to it)."""
    t2 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(mi, mi))
    t1 = sp.diags([-1.0, 1.0], [-1, 1], shape=(mi, mi))
    fold = np.zeros(ni)
    fold[0], fold[-1] = -1.0, 1.0
    s2 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(ni, ni)) + sp.diags(np.abs(fold))
    s1 = sp.diags([-1.0, 1.0], [-1, 1], shape=(ni, ni)) + sp.diags(fold)
    return t2, t1, s2, s1


def _ma_jacobian(stencils, dtt, dss, dts, dt: float, ds: float):
    """Linearisation of u_tt u_ss - u_ts^2 in the interior unknowns, flattened
    row-major (CSC): diag(u_ss) T2 x I / dt^2 + diag(u_tt) I x S2 / ds^2
    - 2 diag(u_ts) T1 x S1 / (4 dt ds), x the Kronecker product."""
    t2, t1, s2, s1 = stencils
    eye_t, eye_s = sp.identity(t2.shape[0]), sp.identity(s2.shape[0])
    return (
        sp.diags(dss.ravel() / (dt * dt)) @ sp.kron(t2, eye_s)
        + sp.diags(dtt.ravel() / (ds * ds)) @ sp.kron(eye_t, s2)
        - sp.diags(2.0 * dts.ravel() / (4.0 * dt * ds)) @ sp.kron(t1, s1)
    ).tocsc()


def _clamp_increments(inc0: float, inc1: float, linear_part: float, t_grid):
    """Boundary-column increments along the path.

    Both ends carry u ~ (linear in s) + c e^{-|s|} asymptotics, and on the
    exact geodesic the coefficient interpolates geometrically,
    c(t) = c0^(1-t) c1^t (linear interpolation injects an O(cosh tau) error
    whose second difference can exceed the boundary curvature).  Falls back
    to linear interpolation when the exponential residues change sign.
    """
    r0 = inc0 - linear_part
    r1 = inc1 - linear_part
    if r0 * r1 > 0.0:
        sign = 1.0 if r0 > 0.0 else -1.0
        mag = np.exp((1.0 - t_grid) * np.log(abs(r0)) + t_grid * np.log(abs(r1)))
        return linear_part + sign * mag
    return (1.0 - t_grid) * inc0 + t_grid * inc1


class LaggedLU:
    """The one live sparse LU of an epsilon-Newton solve.

    Newton steps reuse it as the GMRES preconditioner of later Jacobians, and
    ``solve_epsilon_sweep`` hands it from one epsilon to the next.  The old
    factor is released before a new one is built, so at most one factor's
    fill is alive at a time.
    """

    def __init__(self):
        self.lu = None

    def refactor(self, mat):
        self.lu = None
        self.lu = splu(mat, permc_spec="MMD_AT_PLUS_A")
        return self.lu


def _lagged_krylov(jac, rhs, lu, rtol: float, atol: float):
    """GMRES on jac x = rhs, right-preconditioned by a lagged factor ``lu``.

    GMRES runs on y -> jac lu^{-1} y and returns x = lu^{-1} y, so its own
    stopping test is on the true residual ||jac x - rhs||_2 <= max(rtol
    ||rhs||_2, atol), the test a step must pass (left preconditioning would
    test the preconditioned residual, which can pass while the true one
    fails).  Returns (x or None, iterations); None when one restart cycle of
    ``_KRYLOV_CAP`` iterations does not meet that test.
    """
    last = {}

    def apply(v):
        last["y"], last["x"] = v.copy(), lu.solve(v)
        return jac @ last["x"]

    residuals = []
    y, info = gmres(
        LinearOperator(jac.shape, apply, dtype=jac.dtype), rhs,
        rtol=rtol, atol=atol, restart=_KRYLOV_CAP, maxiter=1,
        callback=residuals.append, callback_type="pr_norm",
    )
    if info != 0:
        return None, len(residuals)
    # GMRES's closing true-residual check applied the operator to y itself
    x = last["x"] if np.array_equal(last.get("y"), y) else lu.solve(y)
    return x, len(residuals)


def solve_epsilon_geodesic(
    u0: ReducedPotential,
    u1: ReducedPotential,
    epsilon: float,
    m: int,
    tol: float = 1e-10,
    initial: SpacetimePotential | None = None,
    max_iter: int = 80,
    full_output: bool = False,
    factor: LaggedLU | None = None,
):
    """Damped Newton for the epsilon-approximation geodesic.

    Dirichlet in t (the given endpoints).  In s the outermost columns are
    clamped to the linear extension from the adjacent node, with increments
    interpolated between the endpoint metrics (geometrically in the
    exponential residue, see ``_clamp_increments``); this lets the asymptote
    intercepts float in t (the intercept obeys its own forced ODE for
    epsilon > 0) and avoids the corner layers a Dirichlet clamp would
    create.  The clamped columns are eliminated from the unknowns.  Steps
    that lose fiber convexity are rejected by the line search; convergence
    from the exact-geodesic start is quadratic after at most a few damped
    steps.

    Each Newton direction comes from GMRES right-preconditioned by the last
    LU held in ``factor`` (a fresh ``LaggedLU`` when None), stopped on the
    true residual at the forcing tolerance min(1e-6, residual) relative or a
    tenth of the residual target absolute (``_lagged_krylov``); when GMRES
    misses it within ``_KRYLOV_CAP`` iterations the Jacobian is factored
    afresh and solved directly.  Ridge retries are always factored afresh,
    so each Newton iteration factors at most once plus once per ridge retry.
    When the start is the exact geodesic (``initial`` None or of epsilon 0),
    a factor built on the first step is released after it: that Jacobian is
    singular along the characteristic direction and preconditions no later
    one.  An ``initial`` on another grid or not of shape (m, n) is a
    ValidationError.  ``info`` (``full_output``) counts the Newton
    iterations, factorisations, GMRES iterations and ridge retries.
    """
    if epsilon <= 0.0:
        raise ValidationError("epsilon must be positive")
    if not tol > 0.0:  # NaN included
        raise ValidationError("tol must be positive")
    if u0.grid != u1.grid:
        raise ValidationError("endpoints must share a grid")
    u0.validate()
    u1.validate()
    grid = u0.grid
    n = grid.n
    ds = grid.ds
    hpp = second_derivative(fubini_study_potential(grid).values, ds)
    t_grid = np.linspace(0.0, 1.0, m)
    dt = float(t_grid[1] - t_grid[0])
    inc_left = _clamp_increments(
        u0.values[0] - u0.values[1], u1.values[0] - u1.values[1], 0.0, t_grid
    )
    inc_right = _clamp_increments(
        u0.values[-1] - u0.values[-2], u1.values[-1] - u1.values[-2],
        2.0 * ds, t_grid,
    )

    def rebuild(Uc: np.ndarray) -> np.ndarray:
        Uc[0] = u0.values
        Uc[-1] = u1.values
        Uc[1:-1, 0] = Uc[1:-1, 1] + inc_left[1:-1]
        Uc[1:-1, -1] = Uc[1:-1, -2] + inc_right[1:-1]
        return Uc

    if initial is None:
        U = rebuild(np.array(legendre_path(u0, u1, m).values))
        degenerate = True
    elif initial.grid == grid and initial.values.shape == (m, n):
        U = rebuild(np.array(initial.values))
        degenerate = initial.epsilon == 0.0
    else:
        raise ValidationError(f"initial path does not match the endpoints' grid and m={m}")

    mi, ni = m - 2, n - 2
    hin = hpp[1:-1]
    stencils = _stencils_1d(mi, ni)
    dtt, dss, dts = _spacetime_derivatives(U, dt, ds)
    res = dtt * dss - dts * dts - epsilon * hin
    rnorm = float(np.max(np.abs(res)))
    if not math.isfinite(rnorm):
        raise ConvergenceError(f"geodesic residual is not finite ({rnorm}) at the start")
    target = max(min(tol, 1e-10), 3e-12)
    history = [rnorm]
    it = 0
    # Convexity guard with a noise floor: interpolated initial paths can dip
    # ~1e-7 below zero on the measure-starved columns, which must not veto
    # every step.  The converged solution is strictly convex anyway (the
    # equation forces u_tt u_ss > u_ts^2 > 0), and that is checked at the end.
    curv_floor = -1e-6 * float(np.max(np.abs(dss)))
    # Levenberg-style diagonal inflation: the Jacobian is singular along the
    # characteristic direction wherever the iterate is degenerate (the
    # geodesic initial guess is degenerate everywhere), which can blow up the
    # raw Newton direction.  Inflation is raised only when the line search
    # rejects a direction and decays afterwards, so the quadratic tail is
    # untouched.
    ridge = 0.0
    if factor is None:
        factor = LaggedLU()
    n_lu = n_krylov = n_ridge = 0
    while rnorm > target and it < max_iter:
        jac = _ma_jacobian(stencils, dtt, dss, dts, dt, ds)
        diag = jac.diagonal()
        rhs = -res.ravel()
        accepted = False
        while not accepted:
            step = None
            if ridge > 0.0:
                jac_r = (jac + sp.diags(ridge * diag)).tocsc()
            else:
                jac_r = jac
                if factor.lu is not None and factor.lu.shape == jac.shape:
                    step, k = _lagged_krylov(
                        jac, rhs, factor.lu, min(1e-6, rnorm), 0.1 * target
                    )
                    n_krylov += k
            if step is None:
                step = factor.refactor(jac_r).solve(rhs)
                n_lu += 1
            delta = step.reshape(mi, ni)
            alpha = 1.0
            while alpha > 2.0 ** -40:
                cand = U.copy()
                cand[1:-1, 1:-1] += alpha * delta
                cand = rebuild(cand)
                dtt_n, dss_n, dts_n = _spacetime_derivatives(cand, dt, ds)
                if np.min(dss_n) <= curv_floor:
                    alpha *= 0.5
                    continue
                res_new = dtt_n * dss_n - dts_n * dts_n - epsilon * hin
                rnorm_new = float(np.max(np.abs(res_new)))
                if rnorm_new < (1.0 - 1e-4 * alpha) * rnorm:
                    U, res, rnorm = cand, res_new, rnorm_new
                    dtt, dss, dts = dtt_n, dss_n, dts_n
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                ridge = 1e-6 if ridge == 0.0 else 30.0 * ridge
                if ridge > 1e3:
                    raise ConvergenceError(
                        f"geodesic Newton stalled at residual {rnorm:.3e} "
                        f"(eps={epsilon}, iteration {it})"
                    )
                n_ridge += 1
        ridge *= 0.1
        if ridge < 1e-9:
            ridge = 0.0
        if it == 0 and degenerate and n_lu:
            # a factor of the degenerate start's Jacobian preconditions
            # nothing later: a GMRES cycle on it only precedes a refactor
            factor.lu = None
        history.append(rnorm)
        it += 1
    if rnorm > target:
        raise ConvergenceError(
            f"geodesic Newton did not converge (eps={epsilon}, residual {rnorm:.3e})"
        )
    # space-time convexity must hold at every interior node
    if not (np.min(dtt * dss - dts * dts) > 0.0 and np.min(dss) > 0.0):  # NaN included
        raise ConvergenceError("solution lost space-time positivity")
    out = SpacetimePotential(t_grid, grid, U, epsilon)
    if full_output:
        return out, {
            "iterations": it, "residual": rnorm, "history": history,
            "factorizations": n_lu, "gmres_iterations": n_krylov,
            "ridge_retries": n_ridge,
        }
    return out


def solve_epsilon_sweep(
    u0: ReducedPotential,
    u1: ReducedPotential,
    eps_schedule,
    m: int,
    tol: float = 1e-10,
    initial: SpacetimePotential | None = None,
    full_output: bool = False,
):
    """Solve the schedule in decreasing order, warm-starting each solve.

    The first solve starts from ``initial`` (the exact geodesic when None),
    each later one from the previous solution and with its last LU as the
    lagged factor.  Returns {eps: solution}, plus {eps: solver info} when
    ``full_output``.
    """
    eps_sorted = sorted((float(e) for e in eps_schedule), reverse=True)
    out: dict[float, SpacetimePotential] = {}
    infos: dict[float, dict] = {}
    prev = initial
    factor = LaggedLU()
    for eps in eps_sorted:
        sol, info = solve_epsilon_geodesic(
            u0, u1, eps, m, tol=tol, initial=prev,
            full_output=True, factor=factor,
        )
        out[eps] = sol
        infos[eps] = info
        prev = sol
    if full_output:
        return out, infos
    return out


@dataclass(frozen=True)
class ChenBoundsReport:
    """Sup norms of phi', phi'' and the mixed second derivatives per epsilon."""

    epsilons: np.ndarray            # descending
    sup_phi_prime: np.ndarray
    sup_phi_second: np.ndarray
    sup_u_ss: np.ndarray
    sup_u_ts: np.ndarray
    flagged: bool                   # True if any norm grew > 10% as eps decreased

    def to_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "sup_phi_prime": list(self.sup_phi_prime),
            "sup_phi_second": list(self.sup_phi_second),
            "sup_u_ss": list(self.sup_u_ss),
            "sup_u_ts": list(self.sup_u_ts),
            "flagged": bool(self.flagged),
        }


def verify_chen_bounds(solutions: dict[float, SpacetimePotential]) -> ChenBoundsReport:
    """Check uniformity of the a priori bounds: flag any sup norm that grows
    by more than 10% as epsilon decreases (the bounds may relax toward their
    limit from above, which is consistent with a uniform constant)."""
    if len(solutions) < 2:
        raise ValidationError("need at least two epsilon values")
    eps_sorted = sorted(solutions, reverse=True)
    p1, p2, uss, uts = [], [], [], []
    for eps in eps_sorted:
        sol = solutions[eps]
        d_ts = _spacetime_derivatives(sol.values, sol.dt, sol.grid.ds)[2]
        p1.append(float(np.max(np.abs(sol.phi_p[1:-1]))))
        p2.append(float(np.max(np.abs(sol.phi_pp[1:-1]))))
        uss.append(max(
            float(np.max(np.abs(sol.geometry(j).u_pp[1:-1])))
            for j in range(sol.t_grid.size)
        ))
        uts.append(float(np.max(np.abs(d_ts))))
    flagged = False
    for series in (p1, p2, uss, uts):
        for a, b in zip(series, series[1:]):
            if b > 1.10 * a:
                flagged = True
    return ChenBoundsReport(
        np.asarray(eps_sorted), np.asarray(p1), np.asarray(p2),
        np.asarray(uss), np.asarray(uts), flagged,
    )


# ---------------------------------------------------------------------------
# serialization: JSON header + CSV payload (one row per time slice)


def save_spacetime(spacetime: SpacetimePotential, json_path, csv_path) -> None:
    """Write the JSON header and the CSV payload; the header names the payload
    relative to its own directory, so the pair can be moved together."""
    header_dir = os.path.dirname(os.path.abspath(json_path))
    header = {
        "t_grid": {"m": int(spacetime.t_grid.size)},
        "grid": spacetime.grid.to_dict(),
        "epsilon": float(spacetime.epsilon),
        "payload": os.path.relpath(os.path.abspath(csv_path), header_dir),
    }
    dump_json(header, json_path)
    with open(csv_path, "w") as fh:
        for row in spacetime.values:
            fh.write(",".join(format_floats(row)) + "\n")


def load_spacetime(json_path, csv_path=None) -> SpacetimePotential:
    header = load_json(json_path)
    if csv_path is None:
        header_dir = os.path.dirname(os.path.abspath(json_path))
        csv_path = os.path.join(header_dir, header["payload"])
    values = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    m = int(header["t_grid"]["m"])
    return SpacetimePotential(
        np.linspace(0.0, 1.0, m), SGrid.from_dict(header["grid"]), values,
        float(header["epsilon"]),
    )

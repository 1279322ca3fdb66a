"""Circle-invariant Kahler potentials on the degree-2 polarized sphere.

Everything lives in the log-radial coordinate s = log|z|^2.  An invariant
positively curved metric is a convex function u(s) with asymptotic slopes 0
and 2 (the moment interval of the polarization); the Kahler form reduces to
the density u''(s), the Ricci potential to F = s - u - log u'', and the
anticanonical measure exp(-phi) to the weight w = exp(s - u).  Fiber
integrals over the sphere carry a factor 2*pi from the collapsed angular
direction.

A fiber's ``FiberGeometry`` also owns the two discrete objects every
weighted integral and the weighted Laplacian are built from, each computed
once per fiber: the trapezoid mass weights mu (sum f*mu = int f w ds) and the
half-point conductance p of the gradient energy
<dbar f, dbar f> = 2*pi * int (f')^2 / u'' * w ds, realized as the Dirichlet
form sum p_{i+1/2} (f_{i+1}-f_i)^2 / ds.  The conductance p ~ w/u'' is not
sampled directly: it is reconstructed from the flux recurrence that makes the
slope field u' - 1 an exact discrete eigenfunction of the weighted Laplacian
with eigenvalue exactly 1.  That exactness is what keeps the spectral defect
form positive semidefinite at round-off level, which several nonnegativity
checks rely on; the price is that p rolls off over the last few
(measure-starved) columns near the truncated ends instead of tracking w/u''
pointwise there.

All types are immutable; the operations are pure functions, so fibers can be
processed in parallel without locking.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GridValidationError, PositivityError, ValidationError

TWO_PI = 2.0 * math.pi
#: total mass of the Kahler form, 2*pi * (slope_right - slope_left)
VOLUME = 4.0 * math.pi
SLOPE_LEFT = 0.0
SLOPE_RIGHT = 2.0
DEFAULT_S_RANGE = (-15.0, 15.0)
#: minimum node count: second-order stencils plus boundary layers
MIN_GRID_POINTS = 33


@dataclass(frozen=True)
class SGrid:
    """Uniform sampling of the log-radial coordinate."""

    s_min: float
    s_max: float
    n: int

    def __post_init__(self):
        if not (self.s_min < 0.0 < self.s_max):
            raise GridValidationError(
                f"grid must straddle s=0, got [{self.s_min}, {self.s_max}]"
            )
        if self.n < MIN_GRID_POINTS:
            raise GridValidationError(f"need n >= {MIN_GRID_POINTS}, got n={self.n}")

    @property
    def ds(self) -> float:
        return (self.s_max - self.s_min) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.n)

    def to_dict(self) -> dict:
        return {"s_min": self.s_min, "s_max": self.s_max, "n": self.n}

    @classmethod
    def from_dict(cls, d: dict) -> "SGrid":
        return cls(float(d["s_min"]), float(d["s_max"]), int(d["n"]))


def _frozen(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights of n uniform samples at spacing h."""
    c = np.full(n, h)
    c[0] = c[-1] = h / 2.0
    return c


def derivative(values: np.ndarray, ds: float) -> np.ndarray:
    """First derivative, second-order: central inside, one-sided at the ends."""
    v = np.asarray(values, dtype=float)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * ds)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * ds)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * ds)
    return d


def second_derivative(values: np.ndarray, ds: float) -> np.ndarray:
    """Second derivative, second-order: central inside, one-sided at the ends."""
    v = np.asarray(values, dtype=float)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (ds * ds)
    d[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (ds * ds)
    d[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (ds * ds)
    return d


def time_derivatives(matrix: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order phi' and phi'' in t along the rows: ``derivative`` and
    ``second_derivative`` on axis 0 (one-sided at the endpoints)."""
    m = matrix.shape[0]
    if m < 3:
        raise ValidationError("need at least 3 time samples")
    if m == 3:
        # one interior slice: its central phi'' stands for all three rows
        d2 = (matrix[2:] - 2.0 * matrix[1:-1] + matrix[:-2]) / (dt * dt)
        return derivative(matrix, dt), np.repeat(d2, 3, axis=0)
    return derivative(matrix, dt), second_derivative(matrix, dt)


@dataclass(frozen=True)
class ReducedPotential:
    """Sampled invariant potential u(s) with its asymptotic slopes."""

    grid: SGrid
    values: np.ndarray
    slope_left: float = SLOPE_LEFT
    slope_right: float = SLOPE_RIGHT

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if self.values.shape != (self.grid.n,):
            raise ValidationError(
                f"expected {self.grid.n} samples, got {self.values.shape}"
            )

    def validate(self) -> None:
        """Check finiteness, Kahler positivity and the moment-interval slope bounds."""
        if not np.all(np.isfinite(self.values)):
            i = int(np.argmin(np.isfinite(self.values)))
            raise ValidationError(f"potential value {self.values[i]} at index {i} is not finite")
        ds = self.grid.ds
        upp = second_derivative(self.values, ds)
        bad = np.nonzero(upp[1:-1] <= 0.0)[0]
        if bad.size:
            i = int(bad[0]) + 1
            raise PositivityError(
                f"u'' <= 0 at index {i} (s={self.grid.nodes()[i]:.4f})", index=i
            )
        up = derivative(self.values, ds)
        if not (0.0 < up[0] and up[-1] < 2.0):
            raise PositivityError(
                f"moment map leaves (0, 2): u'({self.grid.s_min})={up[0]:.3e}, "
                f"u'({self.grid.s_max})={up[-1]:.3e}"
            )

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.to_dict(),
            "values": [float(v) for v in self.values],
            "slopes": [self.slope_left, self.slope_right],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReducedPotential":
        slopes = d.get("slopes", [SLOPE_LEFT, SLOPE_RIGHT])
        return cls(
            SGrid.from_dict(d["grid"]),
            np.asarray(d["values"], dtype=float),
            float(slopes[0]),
            float(slopes[1]),
        )


@dataclass(frozen=True)
class FiberGeometry:
    """Per-metric derived data: u'', Ricci potential, weighted measure, and
    the mass weights ``mu`` and conductance ``p`` computed from them (see the
    module docstring).  Raises PositivityError if the conductance is not
    strictly positive."""

    grid: SGrid
    u_pp: np.ndarray
    F: np.ndarray
    w: np.ndarray
    mass: float
    mu: np.ndarray = field(init=False, compare=False, repr=False)
    p: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("u_pp", "F", "w"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        mu = trapezoid_weights(self.grid.n, self.grid.ds) * self.w
        object.__setattr__(self, "mu", _frozen(mu))
        object.__setattr__(self, "p", _frozen(dirichlet_conductance(self)[0]))


def unit_eigenmode(geom: FiberGeometry) -> np.ndarray:
    """Discrete slope field u' - 1 = -(log w)', shifted to weighted mean zero.

    This is the vector the conductance construction turns into an exact
    eigenfunction with eigenvalue 1.
    """
    g = -derivative(np.log(geom.w), geom.grid.ds)
    return g - float(geom.mu @ g) / float(geom.mu.sum())


def dirichlet_conductance(geom: FiberGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Half-point conductance p and nodal mass weights mu for the fiber.

    p is defined by the flux recurrence p_{i+1/2} (g_{i+1}-g_i)/ds =
    -sum_{j<=i} mu_j g_j with g the mean-zero slope field; the closure at the
    right end is exactly the mean-zero condition.  Raises if the reconstructed
    conductance is not strictly positive (non-convex or under-resolved data).
    ``FiberGeometry`` calls this once and keeps p as ``geom.p``.
    """
    mu = geom.mu
    g = unit_eigenmode(geom)
    dg = np.diff(g)
    bad = np.nonzero(dg <= 0.0)[0]
    if bad.size:
        raise PositivityError(
            f"slope field not increasing at half-point {int(bad[0])}",
            index=int(bad[0]),
        )
    flux = -np.cumsum(mu * g)[:-1]
    bad = np.nonzero(flux <= 0.0)[0]
    if bad.size:
        raise PositivityError(
            f"non-positive conductance at half-point {int(bad[0])}",
            index=int(bad[0]),
        )
    return flux * geom.grid.ds / dg, mu


def fubini_study_potential(grid: SGrid) -> ReducedPotential:
    """Reference round metric, u(s) = 2 log(1 + e^s)."""
    s = grid.nodes()
    return ReducedPotential(grid, 2.0 * np.logaddexp(0.0, s))


class PotentialSpline:
    """Quintic interpolant of a sampled potential, extended beyond the grid.

    Outside [s_min, s_max] u follows the exponential corrections to its
    linear asymptotes, u ~ alpha + c_L e^s on the left and
    2s + beta + c_R e^{-s} on the right (exact up to O(e^{-2|s|})), with the
    coefficients read off the end nodes and the spline slope there.  Built
    once per potential, so repeated evaluation does not refit the spline or
    recompute the coefficients.
    """

    def __init__(self, u: ReducedPotential):
        # not at module scope: it loads scipy.special and scipy.optimize (~0.5 s)
        from scipy.interpolate import make_interp_spline

        self.grid = u.grid
        self.spline = make_interp_spline(u.grid.nodes(), u.values, k=5)
        s0, s1 = u.grid.s_min, u.grid.s_max
        d0 = float(self.spline(s0, nu=1))
        d1 = float(self.spline(s1, nu=1))
        self.c_left = d0 * math.exp(-s0)
        self.alpha = float(u.values[0]) - d0
        self.c_right = (2.0 - d1) * math.exp(s1)
        self.beta = float(u.values[-1]) - 2.0 * s1 - (2.0 - d1)

    def __call__(self, s: np.ndarray, nu: int = 0) -> np.ndarray:
        """u (nu=0), u' (nu=1) or u'' (nu=2) at s, extended asymptotically."""
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        left = s < self.grid.s_min
        right = s > self.grid.s_max
        mid = ~(left | right)
        out[mid] = self.spline(s[mid], nu=nu)
        e_left = self.c_left * np.exp(s[left])
        e_right = self.c_right * np.exp(-s[right])
        if nu == 0:
            out[left] = self.alpha + e_left
            out[right] = 2.0 * s[right] + self.beta + e_right
        else:
            out[left] = e_left
            out[right] = 2.0 - e_right if nu == 1 else e_right
        return out


def evaluate_potential(
    u: ReducedPotential, s: np.ndarray, spline: PotentialSpline | None = None
) -> np.ndarray:
    """Evaluate u off the grid with the asymptotic extension of
    ``PotentialSpline`` (built from u when ``spline`` is None)."""
    if spline is None:
        spline = PotentialSpline(u)
    return spline(s)


def evaluate_slope(
    u: ReducedPotential, s: np.ndarray, spline: PotentialSpline | None = None
) -> np.ndarray:
    """Evaluate u' off the grid with the same asymptotic extension; strictly
    increasing on the whole line for convex input."""
    if spline is None:
        spline = PotentialSpline(u)
    return spline(s, nu=1)


def pullback_potential(u: ReducedPotential, tau: float) -> ReducedPotential:
    """Pull the metric back under z -> a z with tau = log a^2, i.e. resample
    s -> u(s + tau) - tau on the same grid."""
    span = u.grid.s_max - u.grid.s_min
    if abs(tau) > span / 4.0:
        raise ValidationError(
            f"|tau|={abs(tau):.3g} exceeds (s_max - s_min)/4 = {span / 4.0:.3g}"
        )
    vals = evaluate_potential(u, u.grid.nodes() + tau) - tau
    return ReducedPotential(u.grid, vals, u.slope_left, u.slope_right)


def fiber_geometry(u: ReducedPotential) -> FiberGeometry:
    """Metric density, Ricci potential and weighted measure of one fiber.

    The Ricci potential is fixed by the local formula F = s - u - log u'',
    which makes e^F * (u'' e^{-s}) = e^{-u} an identity to round-off.
    """
    u.validate()
    grid = u.grid
    s = grid.nodes()
    upp = second_derivative(u.values, grid.ds)
    bad = np.nonzero(upp <= 0.0)[0]
    if bad.size:
        raise PositivityError(f"u'' <= 0 at index {int(bad[0])}", index=int(bad[0]))
    F = s - u.values - np.log(upp)
    w = np.exp(s - u.values)
    mass_w = float(trapezoid_weights(grid.n, grid.ds) @ w)
    # both tails decay at unit rate, so the mass beyond each end is about
    # that end's w: warn when it exceeds 1e-6 of the fibre's mass
    if w[0] + w[-1] > 1e-6 * mass_w:
        # constant message so the warnings module deduplicates repeat hits
        warnings.warn(
            "weighted measure not negligible at the truncated ends; "
            "consider a wider s-range",
            stacklevel=2,
        )
    return FiberGeometry(grid, upp, F, w, TWO_PI * mass_w)


def random_convex_potential(
    grid: SGrid,
    rng: np.random.Generator,
    n_bumps: int = 3,
    amplitude: float = 0.04,
    max_shrink: int = 12,
) -> ReducedPotential:
    """Round metric plus a few sech bumps, shrunk until positivity and the
    slope bounds hold.  Used by the randomized eigenvalue/identity suites."""
    s = grid.nodes()
    base = 2.0 * np.logaddexp(0.0, s)
    centers = rng.uniform(-3.0, 3.0, size=n_bumps)
    coeffs = rng.uniform(-amplitude, amplitude, size=n_bumps)
    bump = np.zeros_like(s)
    for c, s0 in zip(coeffs, centers):
        bump += c / np.cosh(s - s0)
    for _ in range(max_shrink):
        cand = ReducedPotential(grid, base + bump)
        try:
            cand.validate()
            return cand
        except PositivityError:
            bump = 0.5 * bump
    return fubini_study_potential(grid)

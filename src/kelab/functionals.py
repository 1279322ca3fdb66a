"""Energy functionals along paths of metrics and their time derivatives.

The convex-combination energy (Aubin-Mabuchi), the log-mass functional
F = -log int e^{-phi}, and the Ding functional D = -E/Vol + F.  The ambient
volume normalization deserves a note: with our units int omega = Vol = 4*pi
while e^{-phi}/int e^{-phi} is a probability measure, so criticality of D at
a Kahler-Einstein fiber forces the energy term to enter divided by Vol.  The
raw (un-normalized) energy is still exposed because its cocycle property
E(u + kappa) = kappa * Vol is what calibration tests use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geodesic import SpacetimePotential
from .geometry import (
    TWO_PI,
    VOLUME,
    FiberGeometry,
    ReducedPotential,
    derivative,
    fiber_geometry,
    second_derivative,
    time_derivatives,
    trapezoid_weights,
)
from .quadrature import dbar_norm_sq, project_perp, weighted_integral
from .serialize import write_csv


def aubin_mabuchi_energy(u: ReducedPotential, u0: ReducedPotential) -> float:
    """Mixed energy 2*pi int (u - u0) (u'' + u0'')/2 ds (raw normalization:
    adding a constant kappa changes the value by kappa * Vol)."""
    if u.grid != u0.grid:
        raise ValidationError("energy requires both potentials on one grid")
    ds = u.grid.ds
    c = trapezoid_weights(u.grid.n, ds)
    upp = second_derivative(u.values, ds)
    upp0 = second_derivative(u0.values, ds)
    return TWO_PI * float(c @ ((u.values - u0.values) * 0.5 * (upp + upp0)))


def f_functional(u: ReducedPotential, geom: FiberGeometry | None = None) -> float:
    """-log of the anticanonical mass int e^{-phi} = 2*pi int e^{s-u} ds."""
    if geom is None:
        geom = fiber_geometry(u)
    return -float(np.log(geom.mass))


@dataclass(frozen=True)
class DingReport:
    """Per-t functional values and the pieces of the second derivative."""

    t_grid: np.ndarray
    energy: np.ndarray          # E / Vol (normalized energy)
    f_values: np.ndarray
    ding: np.ndarray
    dprime: np.ndarray          # analytic integrand
    dsecond: np.ndarray         # analytic three-term formula
    c_t: np.ndarray             # int e^{-phi}
    int_f_omega: np.ndarray     # int f omega
    int_f_exp: np.ndarray       # int f e^{-phi}
    int_delta_exp: np.ndarray   # int delta_t e^{-phi} (spectral defect)
    dprime_fd_max_diff: float
    dsecond_fd_max_diff: float

    def rows(self):
        for j in range(self.t_grid.size):
            yield [
                self.t_grid[j], self.energy[j], self.f_values[j], self.ding[j],
                self.dprime[j], self.dsecond[j], self.c_t[j],
                self.int_f_omega[j], self.int_f_exp[j], self.int_delta_exp[j],
            ]


DING_CSV_HEADER = [
    "t", "E", "F", "D", "Dprime", "Dsecond", "c_t",
    "int_f_omega", "int_f_exp", "int_delta_exp",
]


def write_ding_csv(report: DingReport, path) -> None:
    write_csv(path, DING_CSV_HEADER, report.rows())


def ding_derivatives(path: SpacetimePotential) -> DingReport:
    """Evaluate E, F, D and the analytic D', D'' along the path, with the
    energy measured from its fiber at t = 0.

    D'' uses the three-term formula with f = phi'' - |dbar phi'|^2 and
    delta_t = |dbar phi'|^2 - (pi_perp phi')^2 rather than double
    differencing, which would amplify solver noise; the finite-difference
    versions are cross-checked and their maximum deviations reported.
    """
    phi_p, phi_pp = path.phi_p, path.phi_pp
    dt = path.dt
    m = path.t_grid.size
    ds = path.grid.ds
    c_q = trapezoid_weights(path.grid.n, ds)
    reference = path.fiber(0)

    energy = np.empty(m)
    f_vals = np.empty(m)
    dprime = np.empty(m)
    dsecond = np.empty(m)
    c_t = np.empty(m)
    int_f_omega = np.empty(m)
    int_f_exp = np.empty(m)
    int_delta_exp = np.empty(m)

    for j in range(m):
        geom = path.geometry(j)
        u = path.fiber(j)
        energy[j] = aubin_mabuchi_energy(u, reference) / VOLUME
        f_vals[j] = f_functional(u, geom)
        c_t[j] = geom.mass
        # analytic first derivative: int phi' (-omega/Vol + e^{-phi}/c_t)
        omega_term = TWO_PI * float(c_q @ (phi_p[j] * geom.u_pp))
        exp_term = weighted_integral(phi_p[j], geom)
        dprime[j] = -omega_term / VOLUME + exp_term / geom.mass
        # pieces of the second derivative
        dphi_s = derivative(phi_p[j], ds)
        f_field = phi_pp[j] - dphi_s * dphi_s / geom.u_pp
        int_f_omega[j] = TWO_PI * float(c_q @ (f_field * geom.u_pp))
        int_f_exp[j] = weighted_integral(f_field, geom)
        pp = project_perp(phi_p[j], geom)
        int_delta_exp[j] = dbar_norm_sq(pp, geom) - weighted_integral(pp * pp, geom)
        dsecond[j] = -int_f_omega[j] / VOLUME + (int_f_exp[j] + int_delta_exp[j]) / geom.mass

    ding = -energy + f_vals
    fd_dprime, fd_dsecond = time_derivatives(ding.reshape(-1, 1), dt)
    dprime_diff = float(np.max(np.abs(fd_dprime[:, 0] - dprime)))
    dsecond_diff = float(np.max(np.abs(fd_dsecond[1:-1, 0] - dsecond[1:-1])))
    return DingReport(
        path.t_grid, energy, f_vals, ding, dprime, dsecond, c_t,
        int_f_omega, int_f_exp, int_delta_exp, dprime_diff, dsecond_diff,
    )


def integrated_defect(report: DingReport) -> tuple[float, float]:
    """Time integrals (int int f e^{-phi} dt, int int delta_t e^{-phi} dt).

    Both are nonnegative up to round-off for an epsilon-geodesic: the first
    because the forcing keeps f > 0 pointwise, the second because the defect
    is a positive semidefinite spectral form.
    """
    t = report.t_grid
    ct = trapezoid_weights(t.size, float(t[1] - t[0]))
    return float(ct @ report.int_f_exp), float(ct @ report.int_delta_exp)


@dataclass(frozen=True)
class FatouSelection:
    """Per-t subsequence selection for a family of nonnegative G_eps(t)."""

    t_grid: np.ndarray
    constants: np.ndarray       # fitted C_t (nan where flagged)
    selected: list              # per t, list of selected eps values
    flagged: np.ndarray         # True where no bounded subsequence was found


def fatou_subsequence(
    eps_values: np.ndarray, g_table: np.ndarray, t_grid: np.ndarray | None = None
) -> FatouSelection:
    """Select, per t, the eps subsequence with G_eps(t) <= C_t * eps.

    C_t is the smallest ratio G/eps over the schedule and the selection keeps
    every eps within 1.5x of it; a t is flagged divergent when the ratios grow
    like a negative power of eps (log-log slope < -1/4), i.e. when no bounded
    subsequence exists within the computed range.
    """
    eps = np.asarray(eps_values, dtype=float)
    g = np.asarray(g_table, dtype=float)
    if g.shape[0] != eps.size:
        raise ValidationError("g_table must have one row per eps")
    n_t = g.shape[1]
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, n_t)
    ratios = g / eps[:, None]
    constants = np.empty(n_t)
    flagged = np.zeros(n_t, dtype=bool)
    selected: list[list[float]] = []
    log_eps = np.log(eps)
    for i in range(n_t):
        r = ratios[:, i]
        pos = r > 0.0
        if pos.sum() >= 2:
            slope = np.polyfit(log_eps[pos], np.log(r[pos]), 1)[0]
        else:
            slope = 0.0
        if slope < -0.25:
            flagged[i] = True
            constants[i] = np.nan
            selected.append([])
            continue
        c = float(r.min())
        constants[i] = c
        keep = r <= 1.5 * c + 1e-300
        selected.append([float(e) for e in eps[keep]])
    return FatouSelection(np.asarray(t_grid, dtype=float), constants, selected, flagged)

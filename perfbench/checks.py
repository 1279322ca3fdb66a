"""Correctness checks on kelab outputs.

Every check compares against a closed form or a property the method must
have, computed here with plain numpy, never against a stored copy of an
earlier output.  A check raises ``CheckError`` with a one-line reason.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
VOLUME = 4.0 * math.pi   # int omega on the degree-2 sphere

UNIT_TOL = 1e-9          # |lambda_1 - 1|; measured below 2e-12 up to n = 2049
PIECE_TOL = 1e-8         # nonnegative pieces of D''; tests/test_functionals.py
KE_TOL = 1e-7            # sup |u - 2 log(1 + e^s)|; measured 4e-10 at n = 513
ORTHO_TOL = 1e-9         # weighted Gram matrix; measured 1e-12 at n = 2049


class CheckError(Exception):
    """An output violates a closed form or a required property."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def trapezoid(n: int, ds: float) -> np.ndarray:
    c = np.full(n, ds)
    c[0] = c[-1] = ds / 2.0
    return c


def second_difference(v: np.ndarray, ds: float) -> np.ndarray:
    """Central second difference at the interior nodes."""
    return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (ds * ds)


# -- spectra --------------------------------------------------------------


def check_unit_eigenvalue(eigenvalues, label: str) -> None:
    """lambda_1 = 1 to round-off (the slope field is an exact eigenfunction)
    and lambda_2 > 1 (the gap above it)."""
    lam = np.asarray(eigenvalues, dtype=float)
    _require(abs(lam[0] - 1.0) <= UNIT_TOL, f"{label}: lambda_1 - 1 = {lam[0] - 1.0:.3e}")
    _require(lam[1] > 1.0, f"{label}: lambda_2 = {lam[1]!r} <= 1")


def check_round_spectrum(eigenvalues, ds: float, label: str) -> None:
    """At the round metric lambda_l = l(l+1)/2; the second-order scheme
    stays within ds^2 relative (measured 0.83 ds^2 for l <= 8)."""
    lam = np.asarray(eigenvalues, dtype=float)
    l = np.arange(1, lam.size + 1)
    exact = l * (l + 1) / 2.0
    rel = np.abs(lam - exact) / exact
    worst = int(np.argmax(rel))
    _require(
        rel[worst] <= ds * ds,
        f"{label}: lambda_{worst + 1} = {lam[worst]!r} misses {exact[worst]} by "
        f"{rel[worst]:.3e} > ds^2 = {ds * ds:.3e}",
    )


def weighted_gram(funcs: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """2*pi int e_i e_j w ds with w = e^{s-u}, trapezoid rule."""
    mu = TWO_PI * trapezoid(s.size, s[1] - s[0]) * np.exp(s - u)
    return (funcs * mu) @ funcs.T


def check_orthonormal(funcs: np.ndarray, u: np.ndarray, s: np.ndarray, label: str) -> None:
    gram = weighted_gram(funcs, u, s)
    err = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    _require(err <= ORTHO_TOL, f"{label}: weighted Gram matrix off identity by {err:.3e}")


def rayleigh_quotients(funcs: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """int (e')^2 w/u'' / int e^2 w, with the conductance w/u'' averaged to
    half-points (an independent discretization of the same form)."""
    ds = s[1] - s[0]
    w = np.exp(s - u)
    upp = np.empty_like(u)
    upp[1:-1] = second_difference(u, ds)
    upp[0], upp[-1] = upp[1], upp[-2]
    cond = 0.5 * (w[1:] / upp[1:] + w[:-1] / upp[:-1])
    energy = (np.diff(funcs, axis=1) ** 2 / ds) @ cond
    mass = (funcs * funcs) @ (trapezoid(s.size, ds) * w)
    return energy / mass


def check_rayleigh(funcs: np.ndarray, eigenvalues, u: np.ndarray, s: np.ndarray,
                   label: str) -> None:
    """Each eigenfunction's Rayleigh quotient matches its own eigenvalue to
    discretization error (measured at most 0.11 ds^2 relative), which ties
    the columns to the eigenvalues in order."""
    lam = np.asarray(eigenvalues, dtype=float)
    ds = s[1] - s[0]
    rel = np.abs(rayleigh_quotients(funcs, u, s) - lam) / lam
    worst = int(np.argmax(rel))
    _require(
        rel[worst] <= 0.5 * ds * ds,
        f"{label}: Rayleigh quotient of e_{worst + 1} off lambda by {rel[worst]:.3e}",
    )


# -- pipeline report ------------------------------------------------------


def check_ke_potential(values, s: np.ndarray) -> None:
    """The KE solve reproduces the round metric 2 log(1 + e^s)."""
    err = float(np.max(np.abs(np.asarray(values, dtype=float) - 2.0 * np.logaddexp(0.0, s))))
    _require(err <= KE_TOL, f"KE potential off 2 log(1+e^s) by {err:.3e}")


def check_automorphism(a: float, tau: float, ds: float) -> None:
    """The reconstructed scale is a = e^{tau/2}; the error is O(ds^2)
    (measured 0.005 ds^2 at n = 513, 0.008 ds^2 at n = 129)."""
    exact = math.exp(tau / 2.0)
    rel = abs(a - exact) / exact
    _require(rel <= 0.1 * ds * ds, f"automorphism a = {a!r}, e^(tau/2) = {exact!r}")


def check_fibres(per_t) -> None:
    """lambda_1 = 1 and a nonnegative spectral defect on every fibre."""
    for row in per_t:
        _require(abs(row["lambda1"] - 1.0) <= UNIT_TOL,
                 f"t={row['t']}: lambda_1 - 1 = {row['lambda1'] - 1.0:.3e}")
        _require(row["defect"] >= -1e-12, f"t={row['t']}: defect {row['defect']:.3e} < 0")


def check_ding(ding: dict, eps_values) -> None:
    """D'' >= -eps*Vol - 1e-6 and its two defect pieces int f e^-phi and
    int delta e^-phi >= -1e-8: the bounds kelab's own suite asserts
    (tests/test_functionals.py, test_convexity_bound_on_sweep, and
    tests/test_acceptance.py, test_criterion_7_ding_functional).  The first allows D'' down to
    about -1.26 at eps = 0.1; the round-off checks are the two pieces."""
    for eps in eps_values:
        row = ding[f"{eps:.0e}"]
        _require(row["dsecond_min"] >= -eps * VOLUME - 1e-6,
                 f"eps={eps}: D'' min {row['dsecond_min']:.3e} below -eps*Vol")
        _require(row["int_f_exp_min"] >= -PIECE_TOL,
                 f"eps={eps}: int f e^-phi min {row['int_f_exp_min']:.3e} < 0")
        _require(row["int_delta_exp_min"] >= -PIECE_TOL,
                 f"eps={eps}: int delta e^-phi min {row['int_delta_exp_min']:.3e} < 0")


def check_linear_convergence(sup_dev: dict) -> None:
    """sup |u_eps - u_Legendre| falls with eps, with a log-log slope near 1
    (measured 0.96 at n = 129, 0.999 at n = 513)."""
    eps = np.array(sorted((float(k) for k in sup_dev), reverse=True))
    dev = np.array([sup_dev[f"{e:.0e}"] for e in eps])
    _require(bool(np.all(np.diff(dev) < 0.0)), f"sup deviation not decreasing: {dev}")
    slope = float(np.polyfit(np.log(eps), np.log(dev), 1)[0])
    _require(0.8 <= slope <= 1.2, f"sup deviation ~ eps^{slope:.3f}, not linear")


# -- space-time solutions -------------------------------------------------


def spacetime_derivatives(U: np.ndarray, dt: float, ds: float):
    dtt = (U[2:, 1:-1] - 2.0 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / (dt * dt)
    dss = (U[1:-1, 2:] - 2.0 * U[1:-1, 1:-1] + U[1:-1, :-2]) / (ds * ds)
    dts = (U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]) / (4.0 * dt * ds)
    return dtt, dss, dts


def check_monge_ampere(U: np.ndarray, eps: float, s: np.ndarray, target: float) -> None:
    """u_tt u_ss - u_ts^2 = eps h'' (h the round metric) at every interior
    node, to the solver's own residual target."""
    dt = 1.0 / (U.shape[0] - 1)
    ds = s[1] - s[0]
    hpp = second_difference(2.0 * np.logaddexp(0.0, s), ds)
    dtt, dss, dts = spacetime_derivatives(U, dt, ds)
    res = float(np.max(np.abs(dtt * dss - dts * dts - eps * hpp)))
    _require(res <= 1.01 * target, f"eps={eps}: Monge-Ampere residual {res:.3e} > {target:.1e}")


def check_convexity(U: np.ndarray, eps: float, ds: float) -> None:
    """Strict space-time convexity: u_ss > 0 and u_tt u_ss - u_ts^2 > 0."""
    dt = 1.0 / (U.shape[0] - 1)
    dtt, dss, dts = spacetime_derivatives(U, dt, ds)
    _require(float(dss.min()) > 0.0, f"eps={eps}: u_ss min {float(dss.min()):.3e} <= 0")
    det = float((dtt * dss - dts * dts).min())
    _require(det > 0.0, f"eps={eps}: space-time determinant min {det:.3e} <= 0")


# -- files ----------------------------------------------------------------


def read_csv_exact(path) -> tuple[list[str], np.ndarray]:
    """Parse a CSV with float() per field: 17 significant digits round-trip
    a double exactly, so the values must equal what was returned."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows, dtype=float)


def check_spectrum_csv(path, eigenvalues, residuals) -> None:
    header, data = read_csv_exact(path)
    _require(header == ["i", "lambda", "futaki_residual"], f"{path}: header {header}")
    k = len(eigenvalues)
    _require(data.shape == (k, 3), f"{path}: shape {data.shape}, expected ({k}, 3)")
    _require(np.array_equal(data[:, 0], np.arange(1, k + 1)), f"{path}: bad index column")
    _require(np.array_equal(data[:, 1], np.asarray(eigenvalues)),
             f"{path}: eigenvalues differ from the returned ones")
    _require(np.array_equal(data[:, 2], np.asarray(residuals)),
             f"{path}: residuals differ from the returned ones")

"""Weighted Laplacian on one fiber: assembly, spectrum, splitting, identities.

The operator is the positive semidefinite box = dbar* dbar associated with
the measure 2*pi w ds, reduced to the Sturm-Liouville form

    (box f)(s) = -(1/w) d/ds( (w/u'') df/ds ),

discretized in flux form on half-points (zero-flux ends).  The conductance
is the fiber's ``FiberGeometry.p`` (built in :mod:`kelab.geometry`), so the
discrete spectrum contains the eigenvalue 1 exactly, carried by the slope
field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

from .errors import ConvergenceError, ValidationError
from .geometry import TWO_PI, FiberGeometry, derivative
from .quadrature import dbar_norm_sq, inner_product, project_perp, weighted_integral

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class WeightedLaplacianOp:
    """Tridiagonal symmetric-form weighted Laplacian (zero-flux ends)."""

    grid: object
    p_half: np.ndarray
    mass: np.ndarray

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        flux = self.p_half * np.diff(f) / self.grid.ds
        out = np.empty_like(f)
        out[0] = -flux[0]
        out[1:-1] = flux[:-1] - flux[1:]
        out[-1] = flux[-1]
        return out / self.mass


def _abs_apply(op: WeightedLaplacianOp, f: np.ndarray) -> np.ndarray:
    """|A| |f|: ``op.apply`` with every flux term taken in absolute value."""
    a = np.abs(f)
    flux = op.p_half * (a[:-1] + a[1:]) / op.grid.ds
    out = np.empty_like(a)
    out[0] = flux[0]
    out[1:-1] = flux[:-1] + flux[1:]
    out[-1] = flux[-1]
    return out / op.mass


def assemble_weighted_laplacian(geom: FiberGeometry) -> WeightedLaplacianOp:
    return WeightedLaplacianOp(geom.grid, geom.p, geom.mu)


@dataclass(frozen=True)
class SpectralPack:
    """Leading eigenpairs, orthonormal in the weighted inner product."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # shape (k, n)
    k: int


def _refine_pair(diag, off, lam, y, steps=2):
    """Inverse-iteration polish of a tridiagonal eigenpair.

    The raw LAPACK residual scales with the largest matrix entry, which the
    measure-starved end columns push to ~1e8; one or two shifted solves bring
    the residual down to round-off relative to lam itself.
    """
    for _ in range(steps):
        z, info = dgtsv(off, diag - lam, off, y)[3:]
        if info > 0:
            # exactly singular shift: nudge it by a relative amount that
            # survives rounding against the largest diagonal entry
            nudge = 1e-14 * max(abs(lam), float(np.max(np.abs(diag))))
            z, info = dgtsv(off, diag - lam + nudge, off, y)[3:]
        if info != 0 or not np.all(np.isfinite(z)):
            return lam, y
        z /= np.linalg.norm(z)
        ty = diag * z
        ty[:-1] += off * z[1:]
        ty[1:] += off * z[:-1]
        lam = float(z @ ty)
        y = z
    return lam, y


def eigendecompose(op: WeightedLaplacianOp, geom: FiberGeometry, k: int) -> SpectralPack:
    """First k nonzero eigenpairs of the weighted Laplacian.

    The constant mode (eigenvalue 0) is deflated by restriction to the
    weighted-mean-zero sector; eigenfunction signs are fixed by making the
    entry of largest magnitude positive.
    """
    n = geom.grid.n
    if not 0 < k < n - 2:
        raise ValidationError(f"need 0 < k < n-2, got k={k}, n={n}")
    ds = geom.grid.ds
    p, mu = op.p_half, op.mass
    diag = np.zeros(n)
    diag[:-1] += p
    diag[1:] += p
    diag /= ds * mu
    sqmu = np.sqrt(mu)
    off = -p / (ds * sqmu[:-1] * sqmu[1:])
    try:
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k))
    except Exception as exc:  # pragma: no cover - LAPACK failure surface
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    # LAPACK resolves eigenvalues to O(eps * ||T||), and the measure-starved
    # end columns push ||T|| to ~1e10 at n = 2049
    if abs(vals[0]) > max(1e-6 * max(1.0, abs(vals[1])), 64.0 * _EPS * float(diag.max())):
        raise ConvergenceError(
            f"constant mode not resolved: lambda_0 = {vals[0]:.3e}"
        )
    if vals[1] <= 0.0:
        raise ConvergenceError(f"nonpositive first eigenvalue {vals[1]:.3e}")
    lams = np.empty(k)
    funcs = np.empty((k, n))
    for j in range(k):
        lam, y = _refine_pair(diag, off, float(vals[j + 1]), vecs[:, j + 1])
        e = y / sqmu
        e = e - float(mu @ e) / float(mu.sum())  # deflate round-off drift
        e /= np.sqrt(inner_product(e, e, geom))
        i_max = int(np.argmax(np.abs(e)))
        if e[i_max] < 0.0:
            e = -e
        lams[j] = lam
        funcs[j] = e
        res = op.apply(e) - lam * e
        r = np.sqrt(inner_product(res, res, geom))
        if r > 1e-8 * max(lam, 1.0):
            # e is known to rounding only, so the residual cannot fall below
            # eps * || |A| |e| ||, which passes 1e-8 at n = 2049
            scale = _abs_apply(op, e)
            if r > 4.0 * _EPS * np.sqrt(inner_product(scale, scale, geom)):
                raise ConvergenceError(f"eigenpair {j + 1} residual too large")
    return SpectralPack(lams, funcs, k)


def split_box(f: np.ndarray, geom: FiberGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Split box f into the vector-field factor and the divergence factor.

    Returns (h, g) with h = f'/u'' (so the field is h(s) z d/dz) and
    g = -(w h)'/w; checks that g reproduces the assembled operator.
    """
    f = np.asarray(f, dtype=float)
    ds = geom.grid.ds
    h = derivative(f, ds) / geom.u_pp
    g = -derivative(geom.w * h, ds) / geom.w
    op = assemble_weighted_laplacian(geom)
    diff = g - op.apply(f)
    err = np.sqrt(weighted_integral(diff * diff, geom))
    upp = derivative(derivative(f, ds), ds)
    sobolev2 = np.sqrt(
        weighted_integral(f * f + derivative(f, ds) ** 2 + upp * upp, geom)
    )
    if err > 10.0 * ds * ds * max(sobolev2, 1e-300):
        raise ValidationError(
            f"splitting inconsistent with assembled operator: {err:.3e} "
            f"> 10 ds^2 ||f||_W22 = {10 * ds * ds * sobolev2:.3e}"
        )
    return h, g


def _field_gradient_norm_sq(e: np.ndarray, geom: FiberGeometry) -> float:
    """2*pi int |h'|^2 w ds with h = e'/u'' taken at half-points."""
    ds = geom.grid.ds
    p, mu = geom.p, geom.mu
    w_half = np.sqrt(geom.w[:-1] * geom.w[1:])
    h_half = p * (np.diff(e) / ds) / w_half
    dh = np.diff(h_half) / ds
    return TWO_PI * float((dh * dh) @ mu[1:-1])


def futaki_residual(pack: SpectralPack, geom: FiberGeometry, i: int) -> float:
    """Relative defect of the eigenfunction identity
    (lambda - 1) ||dbar e||^2 = ||dbar X||^2 for the i-th eigenpair (1-based)."""
    if not 1 <= i <= pack.k:
        raise ValidationError(f"eigenindex {i} out of range 1..{pack.k}")
    lam = float(pack.eigenvalues[i - 1])
    e = pack.eigenfunctions[i - 1]
    lhs = (lam - 1.0) * dbar_norm_sq(e, geom)
    rhs = _field_gradient_norm_sq(e, geom)
    return abs(lhs - rhs) / (lam * dbar_norm_sq(e, geom))


def energy_decomposition_residual(f: np.ndarray, geom: FiberGeometry) -> float:
    """Relative defect of ||box f||^2 = ||dbar f||^2 + ||dbar X||^2 for any
    smooth f (the all-functions form of the eigenfunction identity)."""
    op = assemble_weighted_laplacian(geom)
    box = op.apply(np.asarray(f, dtype=float))
    box_sq = inner_product(box, box, geom)
    rhs = dbar_norm_sq(f, geom) + _field_gradient_norm_sq(f, geom)
    return abs(box_sq - rhs) / box_sq


def coercivity_ratio(
    f: np.ndarray, geom: FiberGeometry, fs_geom: FiberGeometry
) -> float:
    """Ratio ||f||_{W^{1,2}, reference} / ||box f||_weighted for mean-zero f.

    The reference Sobolev norm is taken at the round metric.  Recorded as a
    regression diagnostic; the continuum estimate only asserts finiteness.
    """
    f = project_perp(np.asarray(f, dtype=float), geom)
    op = assemble_weighted_laplacian(geom)
    box = op.apply(f)
    denom = np.sqrt(inner_product(box, box, geom))
    if denom == 0.0:
        raise ValidationError("box f vanishes; coercivity ratio undefined")
    num = np.sqrt(weighted_integral(f * f, fs_geom) + dbar_norm_sq(f, fs_geom))
    return float(num / denom)


def eigenfunction_table(pack: SpectralPack, geom: FiberGeometry) -> list[list[float]]:
    """Rows (s, e_1, ..., e_k) for CSV dumps."""
    s = geom.grid.nodes()
    rows = []
    for i in range(geom.grid.n):
        rows.append([float(s[i])] + [float(pack.eigenfunctions[j, i]) for j in range(pack.k)])
    return rows

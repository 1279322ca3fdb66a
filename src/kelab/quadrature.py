"""Weighted integrals, inner products and gradient energies on one fiber.

All integrals are against the anticanonical measure 2*pi * w(s) ds with
w = exp(s - u).  Quadrature is composite trapezoid (the fiber's mass weights
``geom.mu``), matching the second-order differencing used elsewhere so that
discrete integration by parts closes.  The gradient energy is the Dirichlet
form of the fiber's half-point conductance ``geom.p``; how that conductance
is built is explained in :mod:`kelab.geometry`.
"""
from __future__ import annotations

import numpy as np

from .geometry import (  # noqa: F401  (the last three are re-exported)
    TWO_PI,
    FiberGeometry,
    dirichlet_conductance,
    trapezoid_weights,
    unit_eigenmode,
)


def weighted_integral(f: np.ndarray, geom: FiberGeometry) -> float:
    """2*pi * int f(s) w(s) ds."""
    f = np.asarray(f, dtype=float)
    if f.shape != geom.w.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {geom.w.shape}")
    return TWO_PI * float(geom.mu @ f)


def inner_product(f: np.ndarray, g: np.ndarray, geom: FiberGeometry) -> float:
    """Weighted L^2 pairing 2*pi * int f g w ds."""
    return weighted_integral(np.asarray(f) * np.asarray(g), geom)


def project_perp(f: np.ndarray, geom: FiberGeometry) -> np.ndarray:
    """Subtract the weighted mean: the result integrates to zero exactly."""
    f = np.asarray(f, dtype=float)
    return f - float(geom.mu @ f) / float(geom.mu.sum())


def dbar_norm_sq(f: np.ndarray, geom: FiberGeometry) -> float:
    """Squared gradient norm 2*pi * int (f')^2/u'' w ds (Dirichlet form)."""
    df = np.diff(np.asarray(f, dtype=float))
    return TWO_PI * float(geom.p @ (df * df)) / geom.grid.ds

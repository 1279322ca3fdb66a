import math

import numpy as np
import pytest

import kelab as kl
from kelab.errors import PositivityError
from kelab.geometry import derivative, fiber_geometry
from kelab.quadrature import (
    dbar_norm_sq,
    dirichlet_conductance,
    inner_product,
    project_perp,
    unit_eigenmode,
    weighted_integral,
)

TWO_PI = 2.0 * math.pi


def test_weighted_integral_constants(fs_1025):
    _, geom = fs_1025
    one = np.ones(geom.grid.n)
    assert weighted_integral(one, geom) == pytest.approx(TWO_PI, rel=1e-6)
    assert weighted_integral(np.zeros(geom.grid.n), geom) == 0.0


def test_moment_average_is_one(fs_1025):
    # int u' e^{s-u} ds = 1 by the substitution t = e^s
    fs, geom = fs_1025
    up = derivative(fs.values, fs.grid.ds)
    assert weighted_integral(up, geom) == pytest.approx(TWO_PI, rel=1e-5)


def test_inner_product_bilinear(fs_1025):
    _, geom = fs_1025
    rng = np.random.default_rng(3)
    f = rng.normal(size=geom.grid.n)
    g = rng.normal(size=geom.grid.n)
    assert inner_product(2.0 * f, g, geom) == pytest.approx(
        2.0 * inner_product(f, g, geom), rel=1e-14
    )


def test_cauchy_schwarz(fs_1025):
    _, geom = fs_1025
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = rng.normal(size=geom.grid.n)
        g = rng.normal(size=geom.grid.n)
        lhs = inner_product(f, g, geom) ** 2
        rhs = weighted_integral(f * f, geom) * weighted_integral(g * g, geom)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_project_perp_mean_zero(fs_1025):
    _, geom = fs_1025
    rng = np.random.default_rng(9)
    for _ in range(10):
        f = rng.normal(size=geom.grid.n)
        out = project_perp(f, geom)
        scale = np.sqrt(weighted_integral(f * f, geom))
        assert abs(weighted_integral(out, geom)) < 1e-12 * max(scale, 1.0)
    # constants project to zero, idempotence to round-off
    z = project_perp(np.full(geom.grid.n, 3.7), geom)
    assert np.max(np.abs(z)) < 1e-12
    f = rng.normal(size=geom.grid.n)
    once = project_perp(f, geom)
    twice = project_perp(once, geom)
    assert np.max(np.abs(once - twice)) < 1e-12


def test_project_perp_moment(fs_1025):
    fs, geom = fs_1025
    up = derivative(fs.values, fs.grid.ds)
    out = project_perp(up, geom)
    assert np.max(np.abs(out - (up - 1.0))) < 1e-5


def test_dbar_norm_constant_and_eigenmode(fs_1025):
    fs, geom = fs_1025
    assert dbar_norm_sq(np.full(geom.grid.n, 2.0), geom) == 0.0
    # u' - 1 is the unit-eigenvalue mode: Dirichlet form equals L2 norm
    f = derivative(fs.values, fs.grid.ds) - 1.0
    assert dbar_norm_sq(f, geom) == pytest.approx(
        weighted_integral(f * f, geom), rel=1e-4
    )


def test_unit_eigenmode_mass(fs_1025):
    fs, geom = fs_1025
    g = unit_eigenmode(geom)
    assert abs(weighted_integral(g, geom)) < 1e-12
    # analytic norm: int tanh^2(s/2) w ds = 1/3
    assert weighted_integral(g * g, geom) == pytest.approx(TWO_PI / 3.0, rel=1e-3)


def test_conductance_matches_half_density(fs_1025):
    # w/u'' = 1/2 identically at the round metric, away from the
    # measure-starved ends where the flux recurrence rolls off
    _, geom = fs_1025
    p, mu = dirichlet_conductance(geom)
    w_half = np.sqrt(geom.w[:-1] * geom.w[1:])
    carrying = w_half >= 1e-3 * geom.w.max()
    assert np.max(np.abs(p[carrying] - 0.5)) < 2e-3
    assert np.all(p > 0.0)
    assert mu.shape == (geom.grid.n,)


def test_conductance_rejects_nonconvex(grid_1025):
    s = grid_1025.nodes()
    geom = fiber_geometry(kl.fubini_study_potential(grid_1025))
    # a geometry with a non-monotone slope field cannot be constructed: its
    # conductance is computed, and rejected, in the constructor
    bad_w = np.array(geom.w) * (1.0 + 0.5 * np.sin(40.0 * s))
    with pytest.raises(PositivityError):
        kl.FiberGeometry(grid_1025, geom.u_pp, geom.F, bad_w, geom.mass)

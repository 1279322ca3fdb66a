"""Property tests of the discrete theory over random convex potentials:
lambda_1 >= 1, the slope mode at eigenvalue exactly 1, Parseval for the
eigen-expansion, a nonnegative spectral defect, convexity of the Ding
functional along the exact geodesic and along epsilon-geodesics between two
such potentials, and that geodesic's root solve against a plain per-row
bisection."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kelab as kl
from kelab.functionals import ding_derivatives
from kelab.geodesic import legendre_path
from kelab.geometry import PotentialSpline, evaluate_potential, evaluate_slope, unit_eigenmode
from kelab.quadrature import dbar_norm_sq, inner_product, project_perp, weighted_integral
from kelab.spectral import assemble_weighted_laplacian, eigendecompose

GRID = kl.SGrid(-15.0, 15.0, 257)
K = 8

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def convex_potentials():
    """Round metric plus sech bumps, shrunk until convex."""
    return st.builds(
        lambda seed, n_bumps, amplitude: kl.random_convex_potential(
            GRID, np.random.default_rng(seed), n_bumps=n_bumps, amplitude=amplitude
        ),
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.floats(0.0, 0.1),
    )


@st.composite
def convex_fibers(draw):
    """Round metric plus sech bumps (shrunk until convex), its geometry and
    a smooth mean-zero function mixing the slope mode with bumps."""
    u = draw(convex_potentials())
    geom = kl.fiber_geometry(u)
    s = GRID.nodes()
    f = draw(st.floats(-1.0, 1.0)) * unit_eigenmode(geom)
    for _ in range(draw(st.integers(0, 4))):
        f = f + draw(st.floats(-1.0, 1.0)) / np.cosh(
            draw(st.floats(0.3, 3.0)) * (s - draw(st.floats(-6.0, 6.0)))
        )
    return geom, project_perp(f, geom)


@PROPERTY
@given(convex_fibers())
def test_first_eigenvalue_at_least_one(fiber):
    geom, _ = fiber
    pack = eigendecompose(assemble_weighted_laplacian(geom), geom, K)
    assert pack.eigenvalues[0] >= 1.0 - 1e-8


@PROPERTY
@given(convex_fibers())
def test_slope_mode_has_eigenvalue_exactly_one(fiber):
    geom, _ = fiber
    g = unit_eigenmode(geom)
    res = assemble_weighted_laplacian(geom).apply(g) - g
    assert np.sqrt(inner_product(res, res, geom)) <= 1e-10 * np.sqrt(inner_product(g, g, geom))


@PROPERTY
@given(convex_fibers())
def test_parseval(fiber):
    geom, f = fiber
    pack = eigendecompose(assemble_weighted_laplacian(geom), geom, K)
    coeffs = np.array([inner_product(f, e, geom) for e in pack.eigenfunctions])
    assert float(coeffs @ coeffs) <= weighted_integral(f * f, geom) * (1.0 + 1e-8)


@PROPERTY
@given(convex_fibers())
def test_spectral_defect_nonnegative(fiber):
    geom, f = fiber
    norm_sq = weighted_integral(f * f, geom)
    assert dbar_norm_sq(f, geom) - norm_sq >= -1e-12 * max(norm_sq, 1e-300)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(convex_potentials(), convex_potentials())
def test_ding_convex_along_geodesic(u0, u1):
    # D'' >= 0 along the exact geodesic, and its spectral defect piece too
    rep = ding_derivatives(legendre_path(u0, u1, 17))
    assert rep.dsecond.min() >= -1e-9
    assert rep.int_delta_exp.min() >= -1e-9


@settings(derandomize=True, max_examples=10, deadline=None)
@given(convex_potentials(), convex_potentials(), st.sampled_from([1e-1, 1e-2]))
def test_ding_convex_along_epsilon_geodesic(u0, u1, eps):
    # D'' >= -eps along the eps-geodesic (its f-term integrates to exactly
    # eps * Vol against omega), and both e^{-phi} pieces stay nonnegative
    rep = ding_derivatives(kl.solve_epsilon_geodesic(u0, u1, eps, 17))
    assert rep.dsecond.min() >= -eps
    assert rep.int_f_exp.min() >= -1e-9
    assert rep.int_delta_exp.min() >= -1e-9


def _bisection_legendre_path(u0, u1, m):
    """Reference: each interior row's root u0'(sigma0) = u1'(sigma1) by 64
    bisection steps over [s_min - span, s_max + span]."""
    s = GRID.nodes()
    sp0, sp1 = PotentialSpline(u0), PotentialSpline(u1)
    span = GRID.s_max - GRID.s_min
    t_grid = np.linspace(0.0, 1.0, m)
    rows = np.empty((m, GRID.n))
    rows[0], rows[-1] = u0.values, u1.values
    for j in range(1, m - 1):
        t = float(t_grid[j])
        lo = np.full(GRID.n, GRID.s_min - span)
        hi = np.full(GRID.n, GRID.s_max + span)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            g = evaluate_slope(u0, mid, sp0) - evaluate_slope(u1, (s - (1.0 - t) * mid) / t, sp1)
            lo = np.where(g < 0.0, mid, lo)
            hi = np.where(g < 0.0, hi, mid)
        sigma0 = 0.5 * (lo + hi)
        sigma1 = (s - (1.0 - t) * sigma0) / t
        rows[j] = (1.0 - t) * evaluate_potential(u0, sigma0, sp0) + t * evaluate_potential(
            u1, sigma1, sp1
        )
    return rows


@settings(derandomize=True, max_examples=15, deadline=None)
@given(convex_potentials(), convex_potentials())
def test_legendre_path_matches_bisection(u0, u1):
    path = legendre_path(u0, u1, 17)
    assert np.max(np.abs(path.values - _bisection_legendre_path(u0, u1, 17))) <= 1e-13

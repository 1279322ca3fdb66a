import math

import numpy as np
import pytest

import kelab as kl
from kelab.errors import ConvergenceError, ValidationError
from kelab.geometry import derivative, fiber_geometry
from kelab.quadrature import dbar_norm_sq, inner_product, project_perp, weighted_integral
from kelab.spectral import (
    assemble_weighted_laplacian,
    coercivity_ratio,
    eigendecompose,
    energy_decomposition_residual,
    futaki_residual,
    split_box,
    _refine_pair,
)

TWO_PI = 2.0 * math.pi
#: invariant-sector spectrum of the round metric: the substitution
#: x = tanh(s/2) turns the weighted Laplacian into half the Legendre operator,
#: so the eigenvalues are the triangular numbers l(l+1)/2
FS_SPECTRUM = np.array([1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0, 36.0])


@pytest.fixture(scope="module")
def fs_pack(fs_1025):
    _, geom = fs_1025
    op = assemble_weighted_laplacian(geom)
    return op, eigendecompose(op, geom, 8), geom


def _smooth_mean_zero(geom, rng, bumps=4):
    s = geom.grid.nodes()
    f = np.zeros_like(s)
    for c, s0 in zip(rng.uniform(-1, 1, bumps), rng.uniform(-4, 4, bumps)):
        f += c / np.cosh(s - s0)
    return project_perp(f, geom)


def test_operator_kills_constants(fs_pack):
    op, _, geom = fs_pack
    out = op.apply(np.full(geom.grid.n, 5.0))
    assert np.max(np.abs(out)) < 1e-12


def test_unit_mode_is_exact_eigenfunction(fs_pack):
    op, _, geom = fs_pack
    from kelab.quadrature import unit_eigenmode

    g = unit_eigenmode(geom)
    res = op.apply(g) - g
    assert np.sqrt(inner_product(res, res, geom)) < 1e-10


def test_box_of_slope_field_closed_form(fs_1025):
    # box(u' - 1) = u' - 1 for every invariant potential; at FS the flux
    # density is constant so the nodal identity holds to stencil accuracy
    fs, geom = fs_1025
    op = assemble_weighted_laplacian(geom)
    f = derivative(fs.values, fs.grid.ds) - 1.0
    out = op.apply(f)
    interior = slice(2, -2)
    assert np.max(np.abs(out - f)[interior]) < 10.0 * fs.grid.ds ** 2


def test_fs_spectrum_closed_form(fs_pack):
    _, pack, _ = fs_pack
    assert pack.eigenvalues.shape == (8,)
    assert abs(pack.eigenvalues[0] - 1.0) < 1e-10
    rel = np.abs(pack.eigenvalues / FS_SPECTRUM - 1.0)
    assert np.max(rel) < 2e-3


def test_eigen_orthonormality(fs_pack):
    _, pack, geom = fs_pack
    gram = np.array(
        [
            [inner_product(a, b, geom) for b in pack.eigenfunctions]
            for a in pack.eigenfunctions
        ]
    )
    assert np.max(np.abs(gram - np.eye(pack.k))) < 1e-10


def test_eigenpair_residuals(fs_pack):
    op, pack, geom = fs_pack
    for lam, e in zip(pack.eigenvalues, pack.eigenfunctions):
        res = op.apply(e) - lam * e
        assert np.sqrt(inner_product(res, res, geom)) <= 1e-8 * lam
        assert abs(weighted_integral(e, geom)) < 1e-10


def test_eigenvalue_refinement_second_order():
    errs = []
    for n in (257, 513, 1025):
        grid = kl.SGrid(-15.0, 15.0, n)
        geom = fiber_geometry(kl.fubini_study_potential(grid))
        pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 4)
        errs.append(np.abs(pack.eigenvalues[1:4] - FS_SPECTRUM[1:4]))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        ratio = e_coarse / e_fine
        assert np.all(ratio > 2.5) and np.all(ratio < 6.0)


def test_eigenfunction_refinement_second_order():
    errs = []
    for n in (257, 513, 1025):
        grid = kl.SGrid(-15.0, 15.0, n)
        geom = fiber_geometry(kl.fubini_study_potential(grid))
        pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 1)
        exact = np.tanh(grid.nodes() / 2.0) / math.sqrt(TWO_PI / 3.0)
        e = pack.eigenfunctions[0]
        if inner_product(e, exact, geom) < 0.0:
            e = -e
        errs.append(np.max(np.abs(e - exact)))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert 2.5 < e_coarse / e_fine < 6.0


def test_unit_bound_random_potentials(grid_1025):
    rng = np.random.default_rng(21)
    for _ in range(20):
        u = kl.random_convex_potential(grid_1025, rng)
        geom = fiber_geometry(u)
        pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 1)
        assert pack.eigenvalues[0] >= 1.0 - 1e-3


def test_rayleigh_consistency(fs_pack):
    _, pack, geom = fs_pack
    rng = np.random.default_rng(31)
    lam1 = pack.eigenvalues[0]
    for _ in range(20):
        f = project_perp(rng.normal(size=geom.grid.n), geom)
        ray = dbar_norm_sq(f, geom) / weighted_integral(f * f, geom)
        assert lam1 <= ray * (1.0 + 1e-12)


def test_self_adjoint_and_energy_identity(fs_pack):
    op, _, geom = fs_pack
    rng = np.random.default_rng(41)
    for _ in range(10):
        f = rng.normal(size=geom.grid.n)
        g = rng.normal(size=geom.grid.n)
        nf = np.sqrt(weighted_integral(f * f, geom))
        ng = np.sqrt(weighted_integral(g * g, geom))
        sym = inner_product(op.apply(f), g, geom) - inner_product(f, op.apply(g), geom)
        assert abs(sym) < 1e-10 * nf * ng
        # the quadratic form of the operator IS the Dirichlet form
        energy = inner_product(op.apply(f), f, geom)
        assert energy == pytest.approx(dbar_norm_sq(f, geom), abs=1e-10 * nf * nf)


def test_split_box_consistency(fs_1025):
    fs, geom = fs_1025
    # slope field: h is the constant 1, interior
    f = derivative(fs.values, fs.grid.ds) - 1.0
    h, box = split_box(f, geom)
    assert np.max(np.abs(h - 1.0)[3:-3]) < 1e-3
    # constants: both factors vanish
    h0, box0 = split_box(np.full(geom.grid.n, 4.0), geom)
    assert np.max(np.abs(h0)) < 1e-12 and np.max(np.abs(box0)) < 1e-12
    # smooth test functions pass the internal consistency assertion
    rng = np.random.default_rng(51)
    for _ in range(5):
        split_box(_smooth_mean_zero(geom, rng), geom)


def test_futaki_residual_fs(fs_pack):
    _, pack, geom = fs_pack
    res = [futaki_residual(pack, geom, i) for i in range(1, 9)]
    assert max(res) < 1e-3
    # lambda_1 = 1: both sides of the identity vanish individually
    f = pack.eigenfunctions[0]
    lhs = (pack.eigenvalues[0] - 1.0) * dbar_norm_sq(f, geom)
    assert abs(lhs) < 1e-3


def test_futaki_rhs_closed_form(fs_pack):
    # for the normalized second eigenfunction ~ P_2(tanh(s/2)):
    # ||dbar X||^2 = (lambda_2 - 1) lambda_2 ||e_2||^2 = 6, matching the
    # direct Legendre-polynomial integral 2*pi*(9/8)(16/15) / ||P_2||^2
    from kelab.spectral import _field_gradient_norm_sq

    _, pack, geom = fs_pack
    rhs = _field_gradient_norm_sq(pack.eigenfunctions[1], geom)
    assert rhs == pytest.approx(6.0, rel=1e-2)


def test_futaki_residual_refinement():
    worst = []
    for n in (513, 1025):
        grid = kl.SGrid(-15.0, 15.0, n)
        geom = fiber_geometry(kl.fubini_study_potential(grid))
        pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 8)
        worst.append(max(futaki_residual(pack, geom, i) for i in range(2, 9)))
    assert worst[0] / worst[1] > 2.5  # second-order decay


def test_futaki_random_potentials(grid_1025):
    rng = np.random.default_rng(61)
    for _ in range(5):
        u = kl.random_convex_potential(grid_1025, rng)
        geom = fiber_geometry(u)
        pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 8)
        assert max(futaki_residual(pack, geom, i) for i in range(1, 9)) < 1e-3


def test_energy_decomposition_identity(fs_1025):
    _, geom = fs_1025
    rng = np.random.default_rng(71)
    for _ in range(5):
        f = _smooth_mean_zero(geom, rng)
        assert energy_decomposition_residual(f, geom) < 1e-3


def test_coercivity_ratio(fs_pack):
    _, pack, geom = fs_pack
    # first eigenfunction: ||e||_W12 = sqrt(1 + lambda_1), ||box e|| = lambda_1
    r = coercivity_ratio(pack.eigenfunctions[0], geom, geom)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-6)
    rng = np.random.default_rng(81)
    ratios = [coercivity_ratio(_smooth_mean_zero(geom, rng), geom, geom) for _ in range(20)]
    assert max(ratios) < 1e3


def test_coercivity_ratio_perturbed(fs_1025):
    fs, fs_geom = fs_1025
    rng = np.random.default_rng(91)
    u = kl.random_convex_potential(fs.grid, rng)
    geom = fiber_geometry(u)
    f = _smooth_mean_zero(geom, rng)
    r_pert = coercivity_ratio(f, geom, fs_geom)
    r_fs = coercivity_ratio(f, fs_geom, fs_geom)
    assert r_pert < 10.0 * max(r_fs, 1.0)
    with pytest.raises(ValidationError):
        coercivity_ratio(np.zeros(geom.grid.n), geom, fs_geom)


def test_eigendecompose_validates_k(fs_1025):
    _, geom = fs_1025
    op = assemble_weighted_laplacian(geom)
    with pytest.raises(ValidationError):
        eigendecompose(op, geom, geom.grid.n)


def test_unresolved_constant_mode_is_rejected(fs_pack, monkeypatch):
    # the constant-mode guard scales with the largest tridiagonal entry, but
    # a lambda_0 of 1e-2 is far above LAPACK's error on it
    import kelab.spectral

    real = kelab.spectral.eigh_tridiagonal

    def shifted(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        vals[0] = 1e-2
        return vals, vecs

    monkeypatch.setattr(kelab.spectral, "eigh_tridiagonal", shifted)
    op, _, geom = fs_pack
    with pytest.raises(ConvergenceError, match="constant mode not resolved"):
        eigendecompose(op, geom, 8)


def test_refine_pair_exactly_singular_shift_at_large_scale():
    # a measure-starved end block [[1e10 + 1, 1e10], [1e10, 1e10 + 1]] has
    # the exact eigenvalue 1; the shifted matrix has a zero pivot, and a
    # nudge scaled by |lambda| alone is lost against the 1e10 diagonal
    diag = np.array([1e10 + 1.0, 1e10 + 1.0, 3.0, 4.0, 5.0, 6.0])
    off = np.array([1e10, 0.0, 0.1, 0.1, 0.1])
    y = np.array([1.0, -1.0, 1e-3, 0.0, 0.0, 0.0])
    lam, z = _refine_pair(diag, off, 1.0, y / np.linalg.norm(y))
    assert np.all(np.isfinite(z))
    assert abs(abs(z[0] - z[1]) / math.sqrt(2.0) - 1.0) < 1e-12
    assert abs(lam - 1.0) < 1e-5


@pytest.fixture(scope="module")
def draw_79():
    # diagonal up to 2.4e10: the refined residual of pair 1 is 1.01e-8, over
    # 1e-8 but at 0.41 of the rounding floor eps * || |A| |e| ||
    u = kl.random_convex_potential(kl.SGrid(-15.0, 15.0, 2049), np.random.default_rng(79))
    geom = fiber_geometry(u)
    return assemble_weighted_laplacian(geom), geom


def test_residual_guard_allows_rounding_floor(draw_79):
    op, geom = draw_79
    pack = eigendecompose(op, geom, 8)
    assert abs(pack.eigenvalues[0] - 1.0) < 1e-8


def test_residual_guard_rejects_wrong_pair(draw_79, monkeypatch):
    import kelab.spectral

    real = kelab.spectral._refine_pair

    def off_by_1e6(*args, **kwargs):
        lam, y = real(*args, **kwargs)
        return lam * (1.0 + 1e-6), y

    monkeypatch.setattr(kelab.spectral, "_refine_pair", off_by_1e6)
    op, geom = draw_79
    with pytest.raises(ConvergenceError, match="residual too large"):
        eigendecompose(op, geom, 8)

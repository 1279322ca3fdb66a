import math
import warnings

import numpy as np
import pytest

import kelab as kl
from kelab.errors import GridValidationError, PositivityError, ValidationError
from kelab.geometry import derivative, fiber_geometry, second_derivative

TWO_PI = 2.0 * math.pi


def test_grid_invariants():
    with pytest.raises(GridValidationError):
        kl.SGrid(1.0, 15.0, 101)          # must straddle 0
    with pytest.raises(GridValidationError):
        kl.SGrid(-15.0, 15.0, 8)          # too few nodes
    g = kl.SGrid(-15.0, 15.0, 513)
    assert g.ds == pytest.approx(30.0 / 512)


def test_fubini_study_values(grid_1025):
    fs = kl.fubini_study_potential(grid_1025)
    s = grid_1025.nodes()
    i0 = int(np.argmin(np.abs(s)))
    assert fs.values[i0] == pytest.approx(2.0 * math.log(2.0), abs=1e-14)
    up = derivative(fs.values, grid_1025.ds)
    assert up[i0] == pytest.approx(1.0, abs=1e-8)   # moment-image midpoint
    fs.validate()


def test_fubini_study_mass(fs_1025):
    # analytic antiderivative -1/(1+e^s) gives mass exactly 2*pi on the line
    _, geom = fs_1025
    assert abs(geom.mass / TWO_PI - 1.0) < 1e-6


def test_fiber_geometry_fs_ricci_flat(fs_1025):
    fs, geom = fs_1025
    ds = fs.grid.ds
    # FS is Einstein: the Ricci potential is the constant -log 2
    assert np.max(np.abs(geom.F + math.log(2.0))) < 10.0 * ds * ds
    assert np.all(geom.u_pp > 0.0)


def test_measure_identity_holds_to_roundoff(fs_1025):
    fs, geom = fs_1025
    s = fs.grid.nodes()
    resid = np.exp(geom.F) * geom.u_pp * np.exp(-s) - np.exp(-fs.values)
    assert np.max(np.abs(resid)) < 1e-12


def test_measure_identity_perturbed(grid_1025):
    s = grid_1025.nodes()
    u = kl.ReducedPotential(
        grid_1025, kl.fubini_study_potential(grid_1025).values + 0.1 / np.cosh(s)
    )
    geom = fiber_geometry(u)
    resid = np.exp(geom.F) * geom.u_pp * np.exp(-s) - np.exp(-u.values)
    assert np.max(np.abs(resid)) < 1e-12
    # perturbed metric is not Einstein: F genuinely varies
    assert geom.F.max() - geom.F.min() > 1e-2


def test_moment_map_range(fs_1025):
    fs, geom = fs_1025
    up = derivative(fs.values, fs.grid.ds)
    assert np.all(np.diff(up) > 0.0)
    assert up[0] > 0.0 and up[-1] < 2.0
    # total curvature mass = slope_right - slope_left; the truncated tails
    # contribute u''(s_end) each (u'' ~ u' near the flat end, 2 - u' near the
    # steep end), which brings plain trapezoid to the 1e-8 level
    c = np.full(fs.grid.n, fs.grid.ds)
    c[0] = c[-1] = fs.grid.ds / 2.0
    total = float(c @ geom.u_pp) + geom.u_pp[0] + geom.u_pp[-1]
    assert abs(total - 2.0) < 1e-8


def test_positivity_error_names_first_index(grid_1025):
    s = grid_1025.nodes()
    vals = kl.fubini_study_potential(grid_1025).values - 2.0 / np.cosh(s)
    u = kl.ReducedPotential(grid_1025, vals)
    with pytest.raises(PositivityError) as err:
        fiber_geometry(u)
    assert err.value.index is not None


def test_pullback_values(grid_1025):
    fs = kl.fubini_study_potential(grid_1025)
    ua = kl.pullback_potential(fs, 1.0)
    s = grid_1025.nodes()
    i0 = int(np.argmin(np.abs(s)))
    assert ua.values[i0] == pytest.approx(2.0 * math.log(1.0 + math.e) - 1.0, abs=1e-10)
    # identity pullback
    u_same = kl.pullback_potential(fs, 0.0)
    assert np.max(np.abs(u_same.values - fs.values)) < 1e-12


def test_pullback_round_trip(grid_1025):
    fs = kl.fubini_study_potential(grid_1025)
    rt = kl.pullback_potential(kl.pullback_potential(fs, 0.7), -0.7)
    assert np.max(np.abs(rt.values - fs.values)) < 10.0 * grid_1025.ds ** 2


def test_pullback_rejects_large_shift(grid_1025):
    fs = kl.fubini_study_potential(grid_1025)
    with pytest.raises(ValidationError):
        kl.pullback_potential(fs, 8.0)


def test_pullback_of_ke_is_ke():
    grid = kl.SGrid(-15.0, 15.0, 2049)
    u0 = kl.solve_ke(grid)
    u1 = kl.pullback_potential(u0, 0.5)
    assert np.max(np.abs(kl.ke_residual(u1))) < 1e-8


def test_random_potentials_valid(grid_1025):
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = kl.random_convex_potential(grid_1025, rng)
        u.validate()


def test_potential_json_round_trip(grid_1025, tmp_path):
    from kelab.serialize import dump_json, load_json

    fs = kl.fubini_study_potential(grid_1025)
    path = tmp_path / "potential.json"
    dump_json(fs.to_dict(), path)
    back = kl.ReducedPotential.from_dict(load_json(path))
    assert back.grid == fs.grid
    assert np.array_equal(back.values, fs.values)
    assert (back.slope_left, back.slope_right) == (0.0, 2.0)


def test_stencils_second_order():
    grid = kl.SGrid(-2.0, 2.0, 201)
    s = grid.nodes()
    f = np.sin(s)
    assert np.max(np.abs(derivative(f, grid.ds) - np.cos(s))) < 5e-4
    assert np.max(np.abs(second_derivative(f, grid.ds) + np.sin(s))) < 5e-3


def test_truncation_warning_measures_tail_mass():
    # the tails beyond [-15, 15] hold 6.1e-7 of the round metric's mass and
    # 6.9e-7 of its tau = 0.5 pullback's; beyond [-10, 10] it is 9.1e-5
    fs = kl.fubini_study_potential(kl.SGrid(-15.0, 15.0, 513))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fiber_geometry(fs)
        fiber_geometry(kl.pullback_potential(fs, 0.5))
    with pytest.warns(UserWarning, match="weighted measure not negligible"):
        fiber_geometry(kl.fubini_study_potential(kl.SGrid(-10.0, 10.0, 513)))

import math

import numpy as np
import pytest

import kelab as kl
from kelab.errors import ValidationError
from kelab.functionals import (
    aubin_mabuchi_energy,
    ding_derivatives,
    f_functional,
    fatou_subsequence,
    integrated_defect,
)
from kelab.geometry import VOLUME

TWO_PI = 2.0 * math.pi


def test_energy_vanishes_on_diagonal(fs_1025):
    fs, _ = fs_1025
    assert aubin_mabuchi_energy(fs, fs) == 0.0


def test_energy_constant_cocycle(fs_1025):
    # adding kappa moves the raw energy by kappa * Vol (both measures carry
    # the full volume 4*pi)
    fs, _ = fs_1025
    kappa = 0.37
    shifted = kl.ReducedPotential(fs.grid, fs.values + kappa)
    e = aubin_mabuchi_energy(shifted, fs)
    assert e == pytest.approx(kappa * VOLUME, rel=1e-6)


def test_energy_grid_mismatch():
    a = kl.fubini_study_potential(kl.SGrid(-15.0, 15.0, 129))
    b = kl.fubini_study_potential(kl.SGrid(-15.0, 15.0, 257))
    with pytest.raises(ValidationError):
        aubin_mabuchi_energy(a, b)


def test_energy_derivative_matches_volume_integrand(ke_pair):
    # dE/dt = 2*pi int u_t u'' ds along any path
    grid, u0, u1 = ke_pair
    path = kl.legendre_path(u0, u1, 33)
    mt = path.values
    dt = path.dt
    energies = np.array(
        [aubin_mabuchi_energy(path.fiber(j), u0) for j in range(mt.shape[0])]
    )
    de_fd = (energies[2:] - energies[:-2]) / (2.0 * dt)
    c = np.full(grid.n, grid.ds)
    c[0] = c[-1] = grid.ds / 2.0
    for j in (5, 16, 27):
        geom = path.geometry(j)
        analytic = TWO_PI * float(c @ (path.phi_p[j] * geom.u_pp))
        assert de_fd[j - 1] == pytest.approx(analytic, abs=20.0 * dt * dt)


def test_f_functional_values(fs_1025):
    fs, geom = fs_1025
    assert f_functional(fs, geom) == pytest.approx(-math.log(TWO_PI), abs=1e-6)
    kappa = 0.8
    shifted = kl.ReducedPotential(fs.grid, fs.values + kappa)
    assert f_functional(shifted) == pytest.approx(
        f_functional(fs, geom) + kappa, abs=1e-12
    )
    # monotone: u1 >= u2 pointwise implies F(u1) >= F(u2)
    bigger = kl.ReducedPotential(
        fs.grid, fs.values + 0.1 / np.cosh(fs.grid.nodes())
    )
    assert f_functional(bigger) >= f_functional(fs, geom)


def test_constant_path_derivatives(fs_1025):
    fs, _ = fs_1025
    path = kl.SpacetimePotential(
        np.linspace(0, 1, 9), fs.grid, np.tile(fs.values, (9, 1)), 0.0
    )
    rep = ding_derivatives(path)
    assert np.max(np.abs(rep.dprime)) < 1e-9
    assert np.max(np.abs(rep.dsecond)) < 1e-9
    assert np.max(np.abs(rep.ding - rep.ding[0])) < 1e-14


def test_ding_is_energy_plus_f(geodesic_suite):
    rep = geodesic_suite["leg_report"]
    assert np.max(np.abs(rep.ding - (-rep.energy + rep.f_values))) < 1e-14


def test_ding_critical_at_ke(geodesic_suite):
    rep = geodesic_suite["leg_report"]
    assert abs(rep.dprime[0]) < 1e-6
    assert abs(rep.dprime[-1]) < 1e-6


def test_ding_constant_on_exact_geodesic(geodesic_suite):
    rep = geodesic_suite["leg_report"]
    assert rep.ding.max() - rep.ding.min() < 5e-5


def test_fd_cross_checks_small(geodesic_suite):
    rep = geodesic_suite["leg_report"]
    dt = float(rep.t_grid[1] - rep.t_grid[0])
    assert rep.dprime_fd_max_diff < 10.0 * dt * dt
    assert rep.dsecond_fd_max_diff < 10.0 * dt * dt


def test_convexity_bound_on_sweep(geodesic_suite):
    vol_h = VOLUME
    for eps, (_, _, rep) in geodesic_suite["reports"].items():
        assert rep.dsecond.min() >= -eps * vol_h - 1e-6
        assert rep.int_f_exp.min() >= -1e-8
        assert rep.int_delta_exp.min() >= -1e-8


def test_integrated_defect_scaling(geodesic_suite):
    fitted = {}
    for eps, (_, _, rep) in geodesic_suite["reports"].items():
        t1, t2 = integrated_defect(rep)
        assert t1 >= -1e-8 and t2 >= -1e-8
        fitted[eps] = (t1 + t2) / eps
    vals = list(fitted.values())
    assert max(vals) / min(vals) < 2.0


def test_dprime_jump_equals_three_term_integral(geodesic_suite):
    for eps, (p, _, rep) in geodesic_suite["reports"].items():
        dt = p.dt
        ct = np.full(rep.t_grid.size, dt)
        ct[0] = ct[-1] = dt / 2.0
        integral = -float(ct @ rep.int_f_omega) / VOLUME + float(
            ct @ ((rep.int_f_exp + rep.int_delta_exp) / rep.c_t)
        )
        jump = rep.dprime[-1] - rep.dprime[0]
        assert abs(jump - integral) < 50.0 * dt * dt


def test_fatou_constant_ratio():
    eps = np.array([1e-1, 1e-2, 1e-3])
    g = np.outer(eps, np.ones(11))
    sel = fatou_subsequence(eps, g)
    assert not sel.flagged.any()
    assert np.allclose(sel.constants, 1.0)
    for chosen in sel.selected:
        assert len(chosen) == 3


def test_fatou_flags_divergent_point():
    eps = np.array([1e-1, 1e-2, 1e-3])
    n_t = 11
    g = np.outer(eps, np.ones(n_t))
    g[:, 4] = eps * (1.0 + 1.0 / np.sqrt(eps))
    sel = fatou_subsequence(eps, g)
    assert sel.flagged[4]
    assert not np.delete(sel.flagged, 4).any()


def test_fatou_on_solver_output(geodesic_suite):
    eps = np.array(sorted(geodesic_suite["reports"], reverse=True))
    g = np.stack(
        [
            geodesic_suite["reports"][e][2].int_f_exp
            + geodesic_suite["reports"][e][2].int_delta_exp
            for e in eps
        ]
    )
    sel = fatou_subsequence(eps, g)
    assert np.mean(~sel.flagged) >= 0.9
    assert np.all(np.isfinite(sel.constants[~sel.flagged]))


def test_ding_csv_round_trip(geodesic_suite, tmp_path):
    from kelab.functionals import DING_CSV_HEADER, write_ding_csv
    from kelab.serialize import read_csv

    rep = geodesic_suite["leg_report"]
    path = tmp_path / "ding.csv"
    write_ding_csv(rep, path)
    header, data = read_csv(path)
    assert header == DING_CSV_HEADER
    assert data.shape == (rep.t_grid.size, len(header))
    assert np.allclose(data[:, 0], rep.t_grid)
    assert np.allclose(data[:, 3], rep.ding)

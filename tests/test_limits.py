import math

import numpy as np
import pytest

import kelab as kl
from kelab import limits as lim
from kelab.errors import EndpointMismatchError, TrivialLimitError, ValidationError
from kelab.geometry import fiber_geometry
from kelab.spectral import assemble_weighted_laplacian, eigendecompose

TAU = 0.5


@pytest.fixture(scope="module")
def fs_basis(fs_1025):
    _, geom = fs_1025
    pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 8)
    return geom, pack


def synthetic_record(eps, lam, coeffs, pack, norm_sq=None):
    """FiberRecord with prescribed eigenvalues/coefficients on a real
    orthonormal eigenbasis."""
    lam = np.asarray(lam, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    mass = float(coeffs @ coeffs)
    if norm_sq is None:
        norm_sq = mass
    spectral = float(((lam - 1.0) * coeffs) @ coeffs)
    return lim.FiberRecord(
        eps, lam, pack.eigenfunctions[: lam.size], coeffs,
        mass, norm_sq, norm_sq + spectral, spectral, spectral,
    )


# ---------------------------------------------------------------------------
# fiber decomposition on real solver output


def test_fiber_decompose_parseval(geodesic_suite):
    sol = geodesic_suite["sweep"][1e-3]
    rec = kl.fiber_decompose(sol, 0.5, 40)
    assert rec.mass <= rec.velocity_norm_sq * (1.0 + 1e-8)
    # spectral completeness: the first 40 modes capture essentially all mass
    assert rec.velocity_norm_sq - rec.mass < 1e-6 * rec.velocity_norm_sq


def test_fiber_decompose_first_mode_dominates(geodesic_suite):
    sol = geodesic_suite["sweep"][1e-3]
    rec = kl.fiber_decompose(sol, 0.5, 8)
    assert rec.coefficients[0] ** 2 > 0.99 * rec.velocity_norm_sq
    # analytic value of the velocity norm: tau^2 * 2*pi/3
    assert rec.velocity_norm_sq == pytest.approx(
        TAU**2 * 2.0 * math.pi / 3.0, rel=1e-2
    )


def test_defect_identity(traces_all):
    for trace in traces_all.values():
        for rec in trace.records:
            assert abs(rec.defect - rec.defect_spectral) < 1e-6 * max(
                rec.velocity_norm_sq, 1.0
            )
            assert rec.defect >= -1e-12


def test_fiber_decompose_validates_time(geodesic_suite):
    sol = geodesic_suite["sweep"][1e-3]
    with pytest.raises(ValidationError):
        kl.fiber_decompose(sol, 0.123456, 8)


# ---------------------------------------------------------------------------
# compactness conditions


def test_conditions_hold_on_solver_output(traces_all):
    tr = traces_all[0.5]
    rep = kl.check_limit_conditions(tr)
    assert rep.all_hold
    d = rep.to_dict()
    assert len(d["eps"]) == 3


def test_conditions_fail_on_constant_path():
    grid = kl.SGrid(-15.0, 15.0, 257)
    u0 = kl.solve_ke(grid)
    recs = []
    for eps in (1e-1, 1e-2, 1e-3):
        sol = kl.solve_epsilon_geodesic(u0, u0, eps, 33)
        recs.append(kl.fiber_decompose(sol, 0.5, 6))
    tr = kl.EpsilonTrace(0.5, tuple(recs))
    rep = kl.check_limit_conditions(tr)
    assert not rep.mass_lower_ok          # mass vanishes with eps
    assert kl.cluster_analysis(tr).case == "trivial"


def test_condition_classification_synthetic(fs_basis):
    # lambda_2 drifting to 1 + delta with mass on mode 2: leading block is
    # only the first eigenvalue
    _, pack = fs_basis
    recs = []
    for eps in (1e-1, 1e-2, 1e-3):
        lam = [1.0, 1.4, 3.0, 6.0]
        recs.append(synthetic_record(eps, lam, [0.5, 0.4, 0.0, 0.0], pack))
    rep = kl.cluster_analysis(kl.EpsilonTrace(0.3, tuple(recs)))
    assert rep.case == "case1"
    assert rep.k_to_one == 1


# ---------------------------------------------------------------------------
# cluster analysis


def test_cluster_case1_on_solver_output(traces_all):
    tr = traces_all[0.5]
    rep = kl.cluster_analysis(tr)
    assert rep.case == "case1"
    assert rep.k_to_one == 1
    assert rep.truncation_index == 1
    assert rep.unit_multiplicity == 1
    assert rep.n_clusters <= rep.unit_multiplicity


def test_cluster_three_cluster_recovery(fs_basis):
    _, pack = fs_basis
    recs = []
    for eps in (1e-1, 1e-2, 1e-3):
        lam = 1.0 + np.arange(1, 9) * eps  # all trend to 1
        c = np.sqrt([0.3, eps, 0.2, eps, 0.1, eps, eps, eps])
        recs.append(synthetic_record(eps, lam, c, pack))
    rep = kl.cluster_analysis(kl.EpsilonTrace(0.3, tuple(recs)))
    assert rep.case == "case2"
    assert rep.cluster_bounds == (2, 4, 6)
    assert rep.n_clusters == 3
    assert rep.truncation_index == 5


def test_cluster_escaping_mass_flagged(fs_basis):
    # all eigenvalues at 1 while the window holds a vanishing fraction of the
    # velocity: the impossible spreading scenario must be flagged
    _, pack = fs_basis
    recs = []
    for eps in (1e-1, 1e-2, 1e-3):
        lam = 1.0 + np.arange(1, 9) * 0.1 * eps
        c = np.full(8, math.sqrt(eps / 8.0))
        recs.append(synthetic_record(eps, lam, c, pack, norm_sq=1.0))
    tr = kl.EpsilonTrace(0.3, tuple(recs))
    with pytest.warns(UserWarning, match="escapes"):
        rep = kl.cluster_analysis(tr)
    assert rep.case == "case2-subcase1"
    with pytest.warns(UserWarning):
        assert lim.detect_vanishing_spread(tr)


# ---------------------------------------------------------------------------
# extraction and orthogonality


def test_extract_field_constants(geodesic_suite, traces_all):
    tr = traces_all[0.5]
    rep = kl.cluster_analysis(tr)
    limit_fiber = kl.legendre_geodesic(
        geodesic_suite["u0"], geodesic_suite["u1"], 0.5
    )
    fld = kl.extract_vector_field(tr, rep, limit_fiber)
    assert fld.c == pytest.approx(TAU, abs=1e-2)
    assert fld.eigen_residual <= 1e-2 * math.sqrt(fld.norm_sq)
    assert fld.holo_residual < 1e-3
    assert math.sqrt(fld.norm_sq) >= math.sqrt(0.25) - 1e-2


def test_extract_trivial_raises(fs_basis, fs_1025):
    fs, _ = fs_1025
    _, pack = fs_basis
    recs = [
        synthetic_record(eps, [1.0, 3.0], [0.0, 0.0], pack, norm_sq=1e-9)
        for eps in (1e-1, 1e-2, 1e-3)
    ]
    tr = kl.EpsilonTrace(0.5, tuple(recs))
    rep = kl.cluster_analysis(tr)
    assert rep.case == "trivial"
    with pytest.raises(TrivialLimitError):
        kl.extract_vector_field(tr, rep, fs)


def test_orthogonality_disjoint_blocks(fs_basis, fs_1025):
    fs, geom = fs_1025
    _, pack = fs_basis
    fld_a = lim.ExtractedField(
        0.3, 0.7 * pack.eigenfunctions[0], np.ones(geom.grid.n), 1.0, 0.0, 0.0, 0.49
    )
    fld_b = lim.ExtractedField(
        0.3, 0.5 * pack.eigenfunctions[2], np.ones(geom.grid.n), 1.0, 0.0, 0.0, 0.25
    )
    gram, flagged = kl.orthogonality_check([fld_a, fld_b], geom)
    assert not flagged
    assert abs(gram[0, 1]) < 1e-10
    assert gram[0, 0] == pytest.approx(0.49, rel=1e-10)


def test_orthogonality_contamination_flagged(fs_basis, fs_1025):
    _, geom = fs_1025
    _, pack = fs_basis
    a = pack.eigenfunctions[0]
    b = pack.eigenfunctions[2] + 0.01 * pack.eigenfunctions[0]
    fld_a = lim.ExtractedField(0.3, a, a, 1.0, 0.0, 0.0, 1.0)
    fld_b = lim.ExtractedField(0.3, b, b, 1.0, 0.0, 0.0, 1.0)
    gram, flagged = kl.orthogonality_check([fld_a, fld_b], geom)
    assert flagged
    assert abs(gram[0, 1]) == pytest.approx(0.01, rel=1e-6)


def test_single_cluster_gram(geodesic_suite, traces_all):
    tr = traces_all[0.5]
    rep = kl.cluster_analysis(tr)
    limit_fiber = kl.legendre_geodesic(geodesic_suite["u0"], geodesic_suite["u1"], 0.5)
    geom = fiber_geometry(limit_fiber)
    fld = kl.extract_vector_field(tr, rep, limit_fiber, geom)
    gram, flagged = kl.orthogonality_check([fld], geom)
    assert gram.shape == (1, 1) and gram[0, 0] > 0.0 and not flagged


# ---------------------------------------------------------------------------
# time direction and the automorphism


def test_time_constancy(geodesic_suite, extracted_fields):
    sol = geodesic_suite["sweep"][1e-3]
    rep = kl.time_constancy(extracted_fields, sol)
    assert rep.c_std < 1e-2
    assert rep.c_max_dev < 1e-2
    assert rep.c_mean == pytest.approx(TAU, abs=1e-2)
    # stationarity residual d/dt(u_ss h) - d/ds(phi'') is O(ds^2 + dt^2)
    grid = geodesic_suite["grid"]
    scale = 1.0
    assert rep.stationarity_residual < 10.0 * (grid.ds**2 + sol.dt**2) * scale
    assert rep.transport_residual < 10.0 * (grid.ds**2 + sol.dt**2) * scale


def test_time_constancy_detects_variation(geodesic_suite, extracted_fields):
    # inject a t-dependent drift into the extracted constants
    sol = geodesic_suite["sweep"][1e-3]
    drifted = {}
    for t, f in extracted_fields.items():
        drifted[t] = lim.ExtractedField(
            f.t, f.u_limit, f.h + 0.2 * t, f.c + 0.2 * t,
            f.holo_residual, f.eigen_residual, f.norm_sq,
        )
    rep = kl.time_constancy(drifted, sol)
    assert rep.c_max_dev > 0.05


def test_reconstruct_automorphism(geodesic_suite, extracted_fields):
    u0, u1 = geodesic_suite["u0"], geodesic_suite["u1"]
    fld = extracted_fields[0.5]
    a, err = kl.reconstruct_automorphism(fld, u0, u1)
    assert a == pytest.approx(math.exp(TAU / 2.0), rel=1e-2)
    assert err < 1e-2


def test_reconstruct_automorphism_identity(fs_1025):
    fs, geom = fs_1025
    n = geom.grid.n
    fld = lim.ExtractedField(0.5, np.zeros(n), np.zeros(n), 0.0, 0.0, 0.0, 0.0)
    a, err = kl.reconstruct_automorphism(fld, fs, fs)
    assert a == 1.0 and err < 1e-12


def test_reconstruct_automorphism_mismatch(geodesic_suite):
    u0, u1 = geodesic_suite["u0"], geodesic_suite["u1"]
    n = u0.grid.n
    wrong = lim.ExtractedField(0.5, np.zeros(n), np.zeros(n), 1.5, 0.0, 0.0, 1.0)
    with pytest.raises(EndpointMismatchError):
        kl.reconstruct_automorphism(wrong, u0, u1)


def test_distributional_product_convergence(geodesic_suite, extracted_fields):
    # the weakly converging metric paired against the strong-limit field and
    # smooth bumps: the products converge distributionally at rate O(eps)
    limit_fiber = geodesic_suite["legendre"].fiber(32)
    gaps = lim.distributional_product_gap(
        geodesic_suite["sweep"], 0.5, extracted_fields[0.5], limit_fiber
    )
    vals = [gaps[e] for e in sorted(gaps, reverse=True)]
    assert vals[0] > vals[1] > vals[2]
    rate = np.polyfit(np.log(sorted(gaps, reverse=True)), np.log(vals), 1)[0]
    assert rate >= 0.8


def test_holomorphy_monotone_along_eps(geodesic_suite):
    from kelab.pipeline import _velocity_holo_defect

    sweep = geodesic_suite["sweep"]
    vals = [_velocity_holo_defect(sweep[e], 0.5) for e in sorted(sweep, reverse=True)]
    assert vals[0] >= vals[1] >= vals[2]

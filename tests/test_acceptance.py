"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is stated inline next to its assertion.
"""
import math

import numpy as np
import kelab as kl
from kelab import limits as lim
from kelab.functionals import fatou_subsequence, integrated_defect
from kelab.geometry import VOLUME, fiber_geometry
from kelab.pipeline import _velocity_holo_defect
from kelab.quadrature import inner_product
from kelab.spectral import (
    assemble_weighted_laplacian,
    eigendecompose,
    energy_decomposition_residual,
    futaki_residual,
)

TAU = 0.5


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_ke_solver():
    grid = kl.SGrid(-15.0, 15.0, 2048)
    fs = kl.fubini_study_potential(grid)
    u = kl.solve_ke(grid)
    err = float(np.max(np.abs(u.values - fs.values)))
    _report(1, err < 1e-8, f"sup|u - u_FS| = {err:.2e} < 1e-8 at n=2048")


def test_criterion_2_first_eigenvalue():
    grid = kl.SGrid(-15.0, 15.0, 1024)
    geom = fiber_geometry(kl.fubini_study_potential(grid))
    pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 1)
    dev = abs(float(pack.eigenvalues[0]) - 1.0)
    # refinement convergence against the closed-form eigenfunction u' - 1
    errs = []
    for n in (256, 512, 1024):
        g = kl.SGrid(-15.0, 15.0, n)
        gm = fiber_geometry(kl.fubini_study_potential(g))
        pk = eigendecompose(assemble_weighted_laplacian(gm), gm, 1)
        exact = np.tanh(g.nodes() / 2.0) / math.sqrt(2.0 * math.pi / 3.0)
        e = pk.eigenfunctions[0]
        if inner_product(e, exact, gm) < 0.0:
            e = -e
        errs.append(float(np.max(np.abs(e - exact))))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    second_order = all(2.5 < r < 6.0 for r in ratios)
    _report(
        2,
        dev < 5e-4 and second_order,
        f"lambda_1 - 1 = {dev:.1e} < 5e-4 at n=1024; eigenfunction refinement "
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} ~ 4 (O(ds^2))",
    )


def test_criterion_3_unit_lower_bound():
    grid = kl.SGrid(-15.0, 15.0, 1024)
    rng = np.random.default_rng(2026)
    worst = np.inf
    for _ in range(100):
        u = kl.random_convex_potential(grid, rng)
        geom = fiber_geometry(u)
        pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 1)
        worst = min(worst, float(pack.eigenvalues[0]))
    _report(
        3,
        worst >= 1.0 - 1e-3,
        f"min lambda_1 = 1 {worst - 1.0:+.1e} >= 1 - 1e-3 over 100 random potentials",
    )


def test_criterion_4_futaki_identity():
    grid = kl.SGrid(-15.0, 15.0, 1025)
    geom = fiber_geometry(kl.fubini_study_potential(grid))
    pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 8)
    worst_fs = max(futaki_residual(pack, geom, i) for i in range(1, 9))
    rng = np.random.default_rng(404)
    worst_rand = 0.0
    for _ in range(20):
        u = kl.random_convex_potential(grid, rng)
        g = fiber_geometry(u)
        pk = eigendecompose(assemble_weighted_laplacian(g), g, 8)
        worst_rand = max(
            worst_rand, max(futaki_residual(pk, g, i) for i in range(1, 9))
        )
    # O(ds^2) refinement decay for the eigenpair identity
    coarse = fiber_geometry(kl.fubini_study_potential(kl.SGrid(-15.0, 15.0, 513)))
    pk_c = eigendecompose(assemble_weighted_laplacian(coarse), coarse, 8)
    worst_coarse = max(futaki_residual(pk_c, coarse, i) for i in range(2, 9))
    worst_fine = max(futaki_residual(pack, geom, i) for i in range(2, 9))
    decay = worst_coarse / worst_fine
    # all-functions version on 20 random smooth functions
    s = grid.nodes()
    worst_all = 0.0
    for _ in range(20):
        f = np.zeros_like(s)
        for c, s0 in zip(rng.uniform(-1, 1, 4), rng.uniform(-4, 4, 4)):
            f += c / np.cosh(s - s0)
        worst_all = max(worst_all, energy_decomposition_residual(f, geom))
    ok = worst_fs < 1e-3 and worst_rand < 1e-3 and decay > 2.5 and worst_all < 1e-3
    _report(
        4,
        ok,
        f"eigenpair residuals: FS {worst_fs:.1e}, random {worst_rand:.1e} < 1e-3; "
        f"refinement decay x{decay:.1f}; all-functions residual {worst_all:.1e} < 1e-3",
    )


def test_criterion_5_epsilon_solver(geodesic_suite):
    grid = geodesic_suite["grid"]
    worst_res = 0.0
    worst_identity = 0.0
    for eps, sol in geodesic_suite["sweep"].items():
        res = kl.monge_ampere_residual(sol)
        worst_res = max(worst_res, float(np.max(np.abs(res))))
        U, dt, ds = sol.values, sol.dt, grid.ds
        dtt = (U[2:, 1:-1] - 2 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / dt**2
        dss = (U[1:-1, 2:] - 2 * U[1:-1, 1:-1] + U[1:-1, :-2]) / ds**2
        dts = (U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]) / (4 * dt * ds)
        f = dtt - dts**2 / dss
        hpp = kl.geometry.second_derivative(sol.background.values, ds)[1:-1]
        worst_identity = max(
            worst_identity, float(np.max(np.abs(f * dss - eps * hpp)))
        )
    chen = kl.verify_chen_bounds(geodesic_suite["sweep"])
    ok = worst_res < 1e-8 and worst_identity < 1e-7 and not chen.flagged
    _report(
        5,
        ok,
        f"PDE residual {worst_res:.1e} < 1e-8; f det g - eps det h = "
        f"{worst_identity:.1e} < 10*tol; Chen sup norms uniform (no growth > 10%)",
    )


def test_criterion_6_weak_convergence(geodesic_suite):
    leg = geodesic_suite["legendre"]
    sups = {
        eps: float(np.max(np.abs(sol.values - leg.values)))
        for eps, sol in geodesic_suite["sweep"].items()
    }
    eps_desc = sorted(sups, reverse=True)
    p = float(np.polyfit(np.log(eps_desc), np.log([sups[e] for e in eps_desc]), 1)[0])
    _report(
        6,
        p >= 0.9,
        f"sup|u_eps - u_geodesic| fits C*eps^p with p = {p:.3f} >= 0.9",
    )


def test_criterion_7_ding_functional(geodesic_suite):
    leg_rep = geodesic_suite["leg_report"]
    d_range = float(leg_rep.ding.max() - leg_rep.ding.min())
    worst_dprime = max(abs(float(leg_rep.dprime[0])), abs(float(leg_rep.dprime[-1])))
    worst_gap = -np.inf
    for eps, (_, _, rep) in geodesic_suite["reports"].items():
        worst_dprime = max(
            worst_dprime, abs(float(rep.dprime[0])), abs(float(rep.dprime[-1]))
        )
        gap = float(np.min(rep.dsecond + eps * VOLUME))  # >= -1e-6 required
        worst_gap = max(worst_gap, -gap)
    ok = worst_dprime < 1e-6 and worst_gap < 1e-6 and d_range < 5e-5
    _report(
        7,
        ok,
        f"|D'| at KE fibers {worst_dprime:.1e} < 1e-6; D'' >= -eps*Vol_h - 1e-6 "
        f"(margin {worst_gap:.1e}); D constant to {d_range:.1e} < 5e-5 on the geodesic",
    )


def test_criterion_8_integrated_defect(geodesic_suite):
    fitted = []
    nonneg = True
    for eps in sorted(geodesic_suite["reports"], reverse=True):
        p, g, rep = geodesic_suite["reports"][eps]
        t1, t2 = integrated_defect(rep)
        nonneg &= t1 >= -1e-8 and t2 >= -1e-8
        fitted.append((t1 + t2) / eps)
    stable = max(fitted) / min(fitted) < 2.0
    eps_arr = np.array(sorted(geodesic_suite["reports"], reverse=True))
    g_table = np.stack(
        [
            geodesic_suite["reports"][e][2].int_f_exp
            + geodesic_suite["reports"][e][2].int_delta_exp
            for e in eps_arr
        ]
    )
    sel = fatou_subsequence(eps_arr, g_table)
    frac = float(np.mean(~sel.flagged))
    ok = nonneg and stable and frac >= 0.9
    _report(
        8,
        ok,
        f"defect terms nonnegative (>= -1e-8); A(eps) = {fitted} stable within "
        f"factor {max(fitted) / min(fitted):.3f} < 2; C_t finite on {frac:.0%} of the t-grid",
    )


def test_criterion_9_field_extraction(geodesic_suite, traces_all, extracted_fields):
    fld = extracted_fields[0.5]
    c_err = abs(fld.c - TAU)
    eig_ok = fld.eigen_residual <= 1e-2 * math.sqrt(fld.norm_sq)
    eps_desc = sorted(geodesic_suite["sweep"], reverse=True)
    holo = [_velocity_holo_defect(geodesic_suite["sweep"][e], 0.5) for e in eps_desc]
    p = float(np.polyfit(np.log(eps_desc), np.log(holo), 1)[0])
    ok = c_err < 1e-2 and p >= 0.9 and eig_ok
    _report(
        9,
        ok,
        f"c = {fld.c:.4f} = tau +- 1e-2; holomorphy defect rate p = {p:.2f} >= 0.9; "
        f"||box u - u|| / ||u|| = {fld.eigen_residual / math.sqrt(fld.norm_sq):.1e} <= 1e-2",
    )


def test_criterion_10_time_direction(geodesic_suite, extracted_fields):
    sol = geodesic_suite["sweep"][sorted(geodesic_suite["sweep"])[0]]
    tc = kl.time_constancy(extracted_fields, sol)
    a, err = kl.reconstruct_automorphism(
        extracted_fields[0.5], geodesic_suite["u0"], geodesic_suite["u1"]
    )
    a_exact = math.exp(TAU / 2.0)
    ok = tc.c_std < 1e-2 and abs(a / a_exact - 1.0) < 1e-2 and err < 1e-2
    _report(
        10,
        ok,
        f"std c(t) = {tc.c_std:.1e} < 1e-2; a = {a:.5f} within "
        f"{abs(a / a_exact - 1.0):.2%} of e^(tau/2); endpoint match {err:.1e} < 1e-2",
    )


def test_criterion_11_synthetic_clusters(fs_1025):
    _, geom = fs_1025
    pack = eigendecompose(assemble_weighted_laplacian(geom), geom, 8)

    def rec(eps, lam, coeffs, norm_sq=None):
        lam = np.asarray(lam, float)
        coeffs = np.asarray(coeffs, float)
        mass = float(coeffs @ coeffs)
        if norm_sq is None:
            norm_sq = mass
        sdef = float(((lam - 1.0) * coeffs) @ coeffs)
        return lim.FiberRecord(
            eps, lam, pack.eigenfunctions[: lam.size], coeffs,
            mass, norm_sq, norm_sq + sdef, sdef, sdef,
        )

    # three mass clusters, all eigenvalues trending to 1
    recs = [
        rec(e, 1.0 + np.arange(1, 9) * e, np.sqrt([0.3, e, 0.2, e, 0.1, e, e, e]))
        for e in (1e-1, 1e-2, 1e-3)
    ]
    rep = kl.cluster_analysis(kl.EpsilonTrace(0.3, tuple(recs)))
    clusters_ok = rep.cluster_bounds == (2, 4, 6) and rep.n_clusters == 3

    # orthogonal limits from disjoint eigenblocks
    n = geom.grid.n
    fld_a = lim.ExtractedField(0.3, pack.eigenfunctions[0], np.ones(n), 1.0, 0, 0, 1.0)
    fld_b = lim.ExtractedField(0.3, pack.eigenfunctions[2], np.ones(n), 1.0, 0, 0, 1.0)
    gram, flagged = kl.orthogonality_check([fld_a, fld_b], geom)
    gram_ok = abs(gram[0, 1]) < 1e-10 and not flagged

    # cluster count never exceeds the unit multiplicity of the limit operator
    mult_ok = rep.n_clusters <= rep.unit_multiplicity

    ok = clusters_ok and gram_ok and mult_ok
    _report(
        11,
        ok,
        f"cluster bounds {rep.cluster_bounds} recovered exactly; Gram off-diagonal "
        f"{abs(gram[0, 1]):.1e} < 1e-10; {rep.n_clusters} clusters <= "
        f"unit multiplicity {rep.unit_multiplicity}",
    )

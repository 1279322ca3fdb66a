import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import kelab as kl
import kelab.geodesic as geodesic
from kelab.errors import ValidationError
from kelab.geodesic import (
    LaggedLU,
    SpacetimePotential,
    _spacetime_derivatives,
    ke_residual,
    legendre_geodesic,
    legendre_path,
    load_spacetime,
    monge_ampere_residual,
    save_spacetime,
    solve_epsilon_geodesic,
    solve_ke,
    verify_chen_bounds,
)
from kelab.geometry import derivative, second_derivative
from kelab.serialize import dump_json, load_json


def test_solve_ke_matches_round_metric():
    grid = kl.SGrid(-15.0, 15.0, 1025)
    fs = kl.fubini_study_potential(grid)
    u = solve_ke(grid)
    assert np.max(np.abs(u.values - fs.values)) < 1e-8


def test_fs_residual_before_solving():
    grid = kl.SGrid(-15.0, 15.0, 513)
    fs = kl.fubini_study_potential(grid)
    assert np.max(np.abs(ke_residual(fs))) < 10.0 * grid.ds ** 2


def test_solve_ke_basin_of_attraction():
    grid = kl.SGrid(-15.0, 15.0, 1025)
    fs = kl.fubini_study_potential(grid)
    start = kl.ReducedPotential(grid, fs.values + 0.3 / np.cosh(grid.nodes()))
    u, info = solve_ke(grid, initial=start, full_output=True)
    assert info["iterations"] <= 30
    assert np.max(np.abs(u.values - fs.values)) < 1e-8


def test_solve_ke_quadratic_tail():
    grid = kl.SGrid(-15.0, 15.0, 513)
    fs = kl.fubini_study_potential(grid)
    start = kl.ReducedPotential(grid, fs.values + 0.3 / np.cosh(grid.nodes()))
    _, info = solve_ke(grid, initial=start, full_output=True)
    hist = info["history"]
    # once below 1e-2, each step at least squares the residual (up to a
    # modest constant) until the round-off floor
    for a, b in zip(hist, hist[1:]):
        if 1e-13 < a < 1e-2:
            assert b < 30.0 * a * a


def test_solve_ke_rejects_bad_tol():
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValidationError):
            solve_ke(kl.SGrid(-15.0, 15.0, 513), tol=tol)


def test_legendre_endpoints(ke_pair):
    _, u0, u1 = ke_pair
    ds2 = 10.0 * u0.grid.ds ** 2
    assert np.max(np.abs(legendre_geodesic(u0, u1, 0.0).values - u0.values)) < ds2
    assert np.max(np.abs(legendre_geodesic(u0, u1, 1.0).values - u1.values)) < ds2


def test_legendre_is_pullback_flow(ke_pair):
    # for endpoints related by z -> a z the dual potential shifts by
    # t*tau*(1-x), i.e. the geodesic is the pullback flow u0(s + t*tau) - t*tau
    _, u0, u1 = ke_pair
    for t in (0.25, 0.5, 0.75):
        fiber = legendre_geodesic(u0, u1, t)
        oracle = kl.pullback_potential(u0, t * 0.5)
        assert np.max(np.abs(fiber.values - oracle.values)) < 1e-10


def test_legendre_velocity_formula(geodesic_suite):
    # phi' = tau * (u_t' - 1) along the pullback-flow geodesic
    leg = geodesic_suite["legendre"]
    grid = geodesic_suite["grid"]
    phi_p = leg.phi_p
    for j in (16, 32, 48):
        up = derivative(leg.values[j], grid.ds)
        assert np.max(np.abs(phi_p[j] - 0.5 * (up - 1.0))) < 20.0 * leg.dt ** 2


def test_legendre_solves_degenerate_equation(geodesic_suite):
    leg = geodesic_suite["legendre"]
    grid = geodesic_suite["grid"]
    res = monge_ampere_residual(leg)  # epsilon = 0
    scale = np.max(np.abs(second_derivative(leg.background.values, grid.ds)))
    assert np.max(np.abs(res)) < 20.0 * (grid.ds ** 2 + leg.dt ** 2) * scale


def test_legendre_path_solves_all_rows_at_once(monkeypatch):
    # one bracket bisection plus a few Newton sweeps over every (t, s) node;
    # 63 rows of 64-step bisection made 8064 slope evaluations
    grid = kl.SGrid(-15.0, 15.0, 257)
    u0 = solve_ke(grid)
    u1 = kl.pullback_potential(u0, 0.5)
    calls = []
    real = geodesic.evaluate_slope

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geodesic, "evaluate_slope", counted)
    path = geodesic.legendre_path(u0, u1, 65)
    assert len(calls) <= 200
    for j in (1, 32, 63):
        fiber = legendre_geodesic(u0, u1, float(path.t_grid[j]))
        assert np.array_equal(fiber.values, path.values[j])


def test_legendre_validates_inputs(ke_pair):
    _, u0, u1 = ke_pair
    with pytest.raises(ValidationError):
        legendre_geodesic(u0, u1, 1.5)


def test_epsilon_solver_residual_and_identity(geodesic_suite):
    grid = geodesic_suite["grid"]
    for eps, sol in geodesic_suite["sweep"].items():
        res = monge_ampere_residual(sol)
        assert np.max(np.abs(res)) < 1e-8
        # f det g = eps det h, with f = phi'' - |dbar phi'|^2
        U = sol.values
        dt, ds = sol.dt, grid.ds
        dtt = (U[2:, 1:-1] - 2 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / dt**2
        dss = (U[1:-1, 2:] - 2 * U[1:-1, 1:-1] + U[1:-1, :-2]) / ds**2
        dts = (U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]) / (4 * dt * ds)
        f = dtt - dts**2 / dss
        hpp = second_derivative(sol.background.values, ds)[1:-1]
        assert np.max(np.abs(f * dss - eps * hpp)) < 10.0 * 1e-8
        # space-time positivity at all interior nodes
        assert np.min(dtt * dss - dts**2) > 0.0


def test_epsilon_solver_endpoint_fidelity(geodesic_suite):
    u0, u1 = geodesic_suite["u0"], geodesic_suite["u1"]
    for sol in geodesic_suite["sweep"].values():
        assert np.array_equal(sol.values[0], u0.values)
        assert np.array_equal(sol.values[-1], u1.values)


def test_epsilon_fibers_remain_valid(geodesic_suite):
    sol = geodesic_suite["sweep"][1e-2]
    for j in range(0, 65, 8):
        sol.fiber(j).validate()


def test_epsilon_convergence_to_legendre(geodesic_suite):
    leg = geodesic_suite["legendre"]
    sups = {
        eps: float(np.max(np.abs(sol.values - leg.values)))
        for eps, sol in geodesic_suite["sweep"].items()
    }
    eps_desc = sorted(sups, reverse=True)
    vals = [sups[e] for e in eps_desc]
    assert vals[0] > vals[1] > vals[2]  # strictly decreasing
    slope = np.polyfit(np.log(eps_desc), np.log(vals), 1)[0]
    assert slope >= 0.9


def test_epsilon_solver_generic_endpoints():
    # endpoints need not be Einstein or related by a pullback
    grid = kl.SGrid(-15.0, 15.0, 257)
    u0 = solve_ke(grid)
    rng = np.random.default_rng(17)
    u1 = kl.random_convex_potential(grid, rng, n_bumps=4, amplitude=0.15)
    sol = solve_epsilon_geodesic(u0, u1, 1e-2, 33)
    assert np.max(np.abs(monge_ampere_residual(sol))) < 1e-8


def test_epsilon_solver_large_shear():
    # widely separated pullback endpoints exercise the geometric boundary
    # increments (a t-linear clamp breaks convexity near the ends here)
    grid = kl.SGrid(-15.0, 15.0, 257)
    u0 = solve_ke(grid)
    sol = solve_epsilon_geodesic(
        kl.pullback_potential(u0, -1.5), kl.pullback_potential(u0, 1.5), 1e-2, 33
    )
    assert np.max(np.abs(monge_ampere_residual(sol))) < 1e-8


def test_equal_endpoints_collapse():
    grid = kl.SGrid(-15.0, 15.0, 257)
    u0 = solve_ke(grid)
    for eps in (1e-2, 1e-3):
        sol = solve_epsilon_geodesic(u0, u0, eps, 33)
        dev = np.max(np.abs(sol.values - u0.values[None, :]))
        assert dev <= 0.2 * eps


def test_epsilon_solver_validates(ke_pair):
    _, u0, u1 = ke_pair
    with pytest.raises(ValidationError):
        solve_epsilon_geodesic(u0, u1, -1.0, 17)
    with pytest.raises(ValidationError):
        solve_epsilon_geodesic(u0, u1, 0.1, 17, tol=float("nan"))


def test_newton_quadratic_once_elliptic(ke_pair):
    _, u0, u1 = ke_pair
    _, info = solve_epsilon_geodesic(u0, u1, 1e-2, 17, full_output=True)
    hist = info["history"]
    below = [r for r in hist if r < 1e-4]
    # tail of the iteration contracts at least quadratically-ish
    for a, b in zip(below, below[1:]):
        if a > 1e-11:
            assert b < max(50.0 * a * a, 1e-12)


@pytest.fixture(scope="module")
def small_pair():
    grid = kl.SGrid(-15.0, 15.0, 257)
    u0 = solve_ke(grid)
    return u0, kl.pullback_potential(u0, 0.5)


def test_sweep_reuses_lagged_factor(small_pair, monkeypatch):
    u0, u1 = small_pair
    calls = []
    real = geodesic.splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(geodesic, "splu", counted)
    sweep, infos = kl.solve_epsilon_sweep(
        u0, u1, (1e-1, 1e-2, 1e-3), 33, full_output=True
    )
    steps = sum(info["iterations"] for info in infos.values())
    assert len(calls) == sum(info["factorizations"] for info in infos.values())
    assert len(calls) < steps
    assert sum(info["gmres_iterations"] for info in infos.values()) > 0
    for eps, sol in sweep.items():
        assert infos[eps]["residual"] <= 1e-10
        assert np.max(np.abs(monge_ampere_residual(sol))) <= 1e-10


@pytest.mark.parametrize("size", ["same", "other"])
def test_stale_factor_is_refactored(small_pair, size):
    # a factor of an unrelated matrix: GMRES cannot use it (or its shape does
    # not match), so the first step drops it and factors the Jacobian afresh
    u0, u1 = small_pair
    unknowns = 31 * 255 if size == "same" else 100
    stale = LaggedLU()
    old = stale.refactor(
        sp.diags(np.linspace(1.0, 2.0, unknowns)).tocsc()
    )
    sol, info = solve_epsilon_geodesic(
        u0, u1, 1e-2, 33, full_output=True, factor=stale
    )
    assert stale.lu is not old and stale.lu.shape == (31 * 255, 31 * 255)
    assert info["factorizations"] >= 1
    if size == "same":
        assert info["gmres_iterations"] >= geodesic._KRYLOV_CAP
    assert info["residual"] <= 1e-10
    assert np.max(np.abs(monge_ampere_residual(sol))) <= 1e-10


def test_lagged_krylov_stops_on_the_true_residual():
    # the factor is of jac D^{-1}, D two clusters of scale 1 and 1e4: the
    # preconditioned operator jac D jac^{-1} has two eigenvalue clusters, so
    # GMRES converges within the cap, while the left-preconditioned residual
    # D jac^{-1} r underweights one cluster by 1e4 and passes early
    rng = np.random.default_rng(0)
    n = 400
    jac = (4.0 * sp.identity(n) + sp.random(n, n, density=0.01, random_state=rng)).tocsc()
    d = np.where(np.arange(n) % 2 == 0, 1.0, 1e4) * (1.0 + 0.01 * rng.standard_normal(n))
    lu = splu((jac @ sp.diags(1.0 / d)).tocsc())
    rhs = rng.standard_normal(n)
    for rtol, atol in ((1e-8, 0.0), (0.0, 1e-7), (1e-8, 1e-6)):
        x, k = geodesic._lagged_krylov(jac, rhs, lu, rtol, atol)
        assert x is not None and 0 < k <= geodesic._KRYLOV_CAP
        assert np.linalg.norm(jac @ x - rhs) <= max(rtol * np.linalg.norm(rhs), atol)
    unrelated = splu(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsc())
    x, k = geodesic._lagged_krylov(jac, rhs, unrelated, 1e-8, 0.0)
    assert x is None and k == geodesic._KRYLOV_CAP


@pytest.fixture(scope="module")
def ke_129():
    return solve_ke(kl.SGrid(-15.0, 15.0, 129))


def test_sweep_drops_the_degenerate_start_factor(ke_129, monkeypatch):
    # the factor built at the exact geodesic (eps = 0) is released after its
    # own step and GMRES stops only on the true residual, so the whole sweep
    # factors twice, both times in eps = 0.1's damped phase
    u0 = ke_129
    built, used = [], []
    real_splu, real_krylov = geodesic.splu, geodesic._lagged_krylov

    def counted(*args, **kwargs):
        built.append(real_splu(*args, **kwargs))
        return built[-1]

    def recorded(jac, rhs, lu, rtol, atol):
        used.append(lu)
        return real_krylov(jac, rhs, lu, rtol, atol)

    monkeypatch.setattr(geodesic, "splu", counted)
    monkeypatch.setattr(geodesic, "_lagged_krylov", recorded)
    sweep, infos = kl.solve_epsilon_sweep(
        u0, kl.pullback_potential(u0, 0.5), (1e-1, 1e-2, 1e-3), 17, full_output=True
    )
    assert len(built) == sum(info["factorizations"] for info in infos.values()) <= 2
    assert used and all(lu is not built[0] for lu in used)
    for eps, sol in sweep.items():
        assert infos[eps]["residual"] <= 1e-10
        assert np.max(np.abs(monge_ampere_residual(sol))) <= 1e-10


def test_sweep_counts_at_n129(ke_129):
    # the sweep's Newton / LU / GMRES counts per eps (1e-1, 1e-2, 1e-3);
    # they hang on round-off in the Jacobian, so a rewrite of its assembly
    # must leave them as they are
    u0 = ke_129
    _, infos = kl.solve_epsilon_sweep(
        u0, kl.pullback_potential(u0, 0.5), (1e-1, 1e-2, 1e-3), 17, full_output=True
    )
    counts = [
        (info["iterations"], info["factorizations"], info["gmres_iterations"])
        for _, info in sorted(infos.items(), reverse=True)
    ]
    assert counts == [(5, 2, 40), (3, 0, 16), (2, 0, 6)]


def _nine_point_jacobian(dtt, dss, dts, dt, ds):
    """Reference: the 9-point space-time stencil written out entry by entry,
    the eliminated boundary columns redirecting their weight onto the
    adjacent interior column."""
    mi, ni = dtt.shape
    jj, ii = np.meshgrid(np.arange(mi), np.arange(ni), indexing="ij")
    flat = (jj * ni + ii).ravel()
    rows, cols, vals = [], [], []

    def add(dj, di, coeff):
        j2 = jj + dj
        i2 = np.clip(ii + di, 0, ni - 1)
        keep = (j2 >= 0) & (j2 < mi)
        rows.append(flat[keep.ravel()])
        cols.append((j2 * ni + i2).ravel()[keep.ravel()])
        vals.append(coeff[keep].ravel())

    add(0, 0, -2.0 * dss / (dt * dt) - 2.0 * dtt / (ds * ds))
    add(1, 0, dss / (dt * dt))
    add(-1, 0, dss / (dt * dt))
    add(0, 1, dtt / (ds * ds))
    add(0, -1, dtt / (ds * ds))
    c = -2.0 * dts / (4.0 * dt * ds)
    add(1, 1, c)
    add(-1, -1, c)
    add(1, -1, -c)
    add(-1, 1, -c)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mi * ni, mi * ni),
    )
    return mat.tocsc()


@pytest.fixture(scope="module")
def jacobian_paths(ke_129):
    u0 = ke_129
    u1 = kl.pullback_potential(u0, 0.5)
    rng = np.random.default_rng(5)
    a = kl.random_convex_potential(u0.grid, rng)
    b = kl.random_convex_potential(u0.grid, rng)
    return {
        "legendre": legendre_path(u0, u1, 17),
        "eps=0.1": solve_epsilon_geodesic(u0, u1, 0.1, 17),
        "random": legendre_path(a, b, 17),
    }


@pytest.mark.parametrize("which", ["legendre", "eps=0.1", "random"])
def test_jacobian_is_the_nine_point_linearisation(jacobian_paths, which):
    path = jacobian_paths[which]
    U, dt, ds = path.values, path.dt, path.grid.ds
    m, n = U.shape
    derivs = _spacetime_derivatives(U, dt, ds)
    jac = geodesic._ma_jacobian(geodesic._stencils_1d(m - 2, n - 2), *derivs, dt, ds)
    ref = _nine_point_jacobian(*derivs, dt, ds)
    assert jac.format == "csc"
    jac.sort_indices()
    ref.sort_indices()
    assert np.array_equal(jac.indptr, ref.indptr)
    assert np.array_equal(jac.indices, ref.indices)
    scale = np.max(np.abs(ref.data))
    assert np.max(np.abs(jac.data - ref.data)) <= 4.0 * np.finfo(float).eps * scale
    # u_tt u_ss - u_ts^2 is quadratic in U, so its central difference along
    # an interior direction v (the clamped columns follow their neighbours)
    # is exact up to round-off (about 7e-13 scale here)
    v = np.zeros_like(U)
    v[1:-1, 1:-1] = np.random.default_rng(0).standard_normal((m - 2, n - 2))
    v[:, 0], v[:, -1] = v[:, 1], v[:, -2]

    def residual(W):
        dtt, dss, dts = _spacetime_derivatives(W, dt, ds)
        return dtt * dss - dts * dts

    fd = 0.5 * (residual(U + v) - residual(U - v))
    assert np.max(np.abs(jac @ v[1:-1, 1:-1].ravel() - fd.ravel())) <= 1e-10 * scale


def test_epsilon_solver_rejects_mismatched_initial(ke_129):
    u0 = ke_129
    u1 = kl.pullback_potential(u0, 0.5)
    path = legendre_path(u0, u1, 17)
    other = SpacetimePotential(
        path.t_grid, kl.SGrid(-14.0, 14.0, 129), path.values, 0.0
    )
    for initial, m in ((path, 33), (other, 17)):
        with pytest.raises(ValidationError, match="does not match"):
            solve_epsilon_geodesic(u0, u1, 0.1, m, initial=initial)


def test_non_finite_start_is_convergence_error(ke_129):
    # NaN fails every comparison, so a NaN residual must not end a solve
    with pytest.raises(kl.ConvergenceError, match="not finite"):
        solve_ke(kl.SGrid(-15.0, 1e308, 129))
    u0 = ke_129
    u1 = kl.pullback_potential(u0, 0.5)
    values = np.array(legendre_path(u0, u1, 17).values)
    values[8, 64] = np.nan
    start = SpacetimePotential(np.linspace(0.0, 1.0, 17), u0.grid, values, 0.1)
    with pytest.raises(kl.ConvergenceError, match="not finite"):
        solve_epsilon_geodesic(u0, u1, 0.1, 17, initial=start)


@pytest.mark.parametrize("tau", [-7.0, 7.0, 7.5])
def test_sweep_converges_at_large_shear(ke_129, tau):
    # descending eps warm-starts each solve from a smoother one; solved first
    # from the exact geodesic, eps = 1e-3 does not converge at these tau
    u0 = ke_129
    sweep = kl.solve_epsilon_sweep(
        u0, kl.pullback_potential(u0, tau), (1e-1, 1e-2, 1e-3), 17
    )
    for sol in sweep.values():
        assert np.max(np.abs(monge_ampere_residual(sol))) <= 1e-10


def test_chen_bounds_uniform(geodesic_suite):
    rep = verify_chen_bounds(geodesic_suite["sweep"])
    assert not rep.flagged
    assert np.all(rep.sup_phi_prime < 10.0)
    d = rep.to_dict()
    assert len(d["epsilons"]) == 3


def test_chen_bounds_legendre_velocity(geodesic_suite):
    # |phi'| = |tau| sup|u_t' - 1| <= |tau| on the exact geodesic
    leg = geodesic_suite["legendre"]
    phi_p = leg.phi_p
    assert np.max(np.abs(phi_p)) <= 0.5 + 1e-6


def test_spacetime_round_trip(geodesic_suite, tmp_path):
    sol = geodesic_suite["sweep"][1e-2]
    jp, cp = tmp_path / "st.json", tmp_path / "st.csv"
    save_spacetime(sol, jp, cp)
    back = load_spacetime(jp, cp)
    assert back.epsilon == sol.epsilon
    assert back.grid == sol.grid
    assert np.allclose(back.values, sol.values, rtol=0, atol=1e-15)


def test_spacetime_header_is_portable(geodesic_suite, tmp_path, monkeypatch):
    # written with paths relative to the working directory, loaded from
    # another one: the header names its payload relative to itself
    sol = geodesic_suite["legendre"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rel_out").mkdir()
    save_spacetime(sol, "rel_out/st.json", "rel_out/st.csv")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    back = load_spacetime(tmp_path / "rel_out" / "st.json")
    assert np.array_equal(back.values, sol.values)


def test_spacetime_header_without_background(geodesic_suite, tmp_path):
    # the reference metric is the round one on the path's grid; headers no
    # longer carry it, and older headers that do still load
    sol = geodesic_suite["sweep"][1e-2]
    jp, cp = tmp_path / "st.json", tmp_path / "st.csv"
    save_spacetime(sol, jp, cp)
    header = load_json(jp)
    assert "background" not in header
    header["background"] = sol.background.to_dict()
    dump_json(header, jp)
    back = load_spacetime(jp)
    assert np.array_equal(back.background.values, kl.fubini_study_potential(sol.grid).values)
    assert np.array_equal(monge_ampere_residual(back), monge_ampere_residual(sol))


def test_sweep_requires_positive_eps(ke_pair):
    _, u0, u1 = ke_pair
    with pytest.raises(ValidationError):
        kl.solve_epsilon_sweep(u0, u1, [0.1, -0.1], m=17)

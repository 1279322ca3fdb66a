"""Each correctness check passes on a real output and fails on a
deliberately wrong one."""
import copy
import json
import os
import shutil

import numpy as np
import pytest

import checks as ck
import kelab as kl
import workloads


def fails(fn, *args):
    with pytest.raises(ck.CheckError):
        fn(*args)


@pytest.fixture(scope="module")
def pipeline(tiny):
    wl, _ = tiny["pipeline-default"]
    with open(os.path.join(wl.config.out, "report.json")) as fh:
        return wl, json.load(fh)


def test_automorphism(pipeline):
    wl, rep = pipeline
    ds = wl.config.grid().ds
    ck.check_automorphism(rep["automorphism"]["a"], wl.config.tau, ds)
    fails(ck.check_automorphism, 1.0, wl.config.tau, ds)
    fails(ck.check_automorphism, rep["automorphism"]["a"] * (1 + ds * ds), wl.config.tau, ds)


def test_ke_potential(pipeline):
    wl, _ = pipeline
    s = wl.config.grid().nodes()
    with open(os.path.join(wl.config.out, "ke_potential.json")) as fh:
        values = np.array(json.load(fh)["values"])
    ck.check_ke_potential(values, s)
    with open(os.path.join(wl.config.out, "pullback_potential.json")) as fh:
        fails(ck.check_ke_potential, json.load(fh)["values"], s)
    fails(ck.check_ke_potential, values + 1e-6, s)


def test_fibres(pipeline):
    _, rep = pipeline
    ck.check_fibres(rep["per_t"])
    shifted = copy.deepcopy(rep["per_t"])
    shifted[3]["lambda1"] += 1e-6
    fails(ck.check_fibres, shifted)
    negative = copy.deepcopy(rep["per_t"])
    negative[5]["defect"] = -1e-9
    fails(ck.check_fibres, negative)


def test_ding(pipeline):
    wl, rep = pipeline
    ck.check_ding(rep["ding"], wl.config.eps)
    for key, value in (("int_delta_exp_min", -1e-6), ("int_f_exp_min", -1e-6),
                       ("dsecond_min", -2.0)):
        bad = copy.deepcopy(rep["ding"])
        bad["1e-01"][key] = value
        fails(ck.check_ding, bad, wl.config.eps)


def test_linear_convergence(pipeline):
    _, rep = pipeline
    dev = rep["convergence"]["sup_deviation"]
    ck.check_linear_convergence(dev)
    fails(ck.check_linear_convergence, {k: 1e-3 for k in dev})
    fails(ck.check_linear_convergence, {k: float(k) ** 2 for k in dev})


def test_report_bytes_compared_across_passes(tiny):
    wl, _ = tiny["pipeline-default"]
    report_path = os.path.join(wl.config.out, "report.json")
    with open(report_path) as fh:
        report = json.load(fh)
    res = workloads.PassResult()
    wl.check_report(report, res)
    assert res.problems == []
    saved = report_path + ".orig"
    shutil.copy(report_path, saved)
    try:
        with open(report_path, "a") as fh:
            fh.write(" ")
        wl.check_report(report, res)
        assert res.problems == ["report.json bytes differ between passes"]
    finally:
        shutil.move(saved, report_path)


@pytest.fixture(scope="module")
def sweep(tiny):
    wl, _ = tiny["sweep-large"]
    sol = kl.solve_epsilon_sweep(wl.u0, wl.u1, workloads.EPS, wl.m, tol=wl.TOL)
    return wl, sol


def test_monge_ampere(sweep):
    wl, sol = sweep
    s = wl.grid.nodes()
    for eps, st in sol.items():
        ck.check_monge_ampere(st.values, eps, s, wl.TOL)
    U = np.array(sol[1e-2].values)
    U[wl.m // 2, wl.grid.n // 2] += 1e-9
    fails(ck.check_monge_ampere, U, 1e-2, s, wl.TOL)
    fails(ck.check_monge_ampere, sol[1e-2].values, 1e-3, s, wl.TOL)


def test_convexity(sweep):
    wl, sol = sweep
    U = sol[1e-1].values
    ck.check_convexity(U, 1e-1, wl.grid.ds)
    fails(ck.check_convexity, -U, 1e-1, wl.grid.ds)
    flat_t = np.repeat(U[:1], U.shape[0], axis=0)   # u_tt = 0
    fails(ck.check_convexity, flat_t, 1e-1, wl.grid.ds)


def test_unit_eigenvalue(sweep):
    _, sol = sweep
    lam = kl.fiber_decompose(sol[1e-1], 0.5, workloads.K).eigenvalues
    ck.check_unit_eigenvalue(lam, "t=0.5")
    fails(ck.check_unit_eigenvalue, lam + np.eye(lam.size)[0] * 1e-6, "t=0.5")
    fails(ck.check_unit_eigenvalue, np.r_[lam[0], 1.0, lam[2:]], "t=0.5")


@pytest.fixture(scope="module")
def dumped(tiny):
    """A dumped call on a round and on a random input, read back."""
    wl, _ = tiny["spectrum-files"]
    out = {}
    for label, u, path, cfg, dump, is_round, _ in wl.calls:
        if dump:
            with open(os.path.join(cfg.out, "spectrum.csv")) as fh:
                lam = np.array([float(r.split(",")[1]) for r in fh.readlines()[1:]])
            _, table = ck.read_csv_exact(os.path.join(cfg.out, "eigenfunctions.csv"))
            out[is_round] = (u, cfg, lam, table[:, 1:].T)
    assert out, "tiny spectrum-files dumped no eigenfunctions"
    return out


def test_orthonormal_and_rayleigh(dumped):
    for u, _, lam, funcs in dumped.values():
        s = u.grid.nodes()
        ck.check_orthonormal(funcs, u.values, s, "tiny")
        ck.check_rayleigh(funcs, lam, u.values, s, "tiny")
        swapped = funcs[[1, 0] + list(range(2, funcs.shape[0]))]
        fails(ck.check_rayleigh, swapped, lam, u.values, s, "tiny")
        fails(ck.check_orthonormal, swapped * 1.001, u.values, s, "tiny")
        tail = funcs.copy()
        tail[-1, :] = tail[-2, :]
        fails(ck.check_orthonormal, tail, u.values, s, "tiny")


def test_round_spectrum():
    grid = kl.SGrid(-15.0, 15.0, 129)
    u = kl.fubini_study_potential(grid)
    geom = kl.fiber_geometry(u)
    lam = kl.eigendecompose(kl.assemble_weighted_laplacian(geom), geom, 8).eigenvalues
    ck.check_round_spectrum(lam, grid.ds, "round")
    bad = lam.copy()
    bad[2] *= 1.0 + 2.0 * grid.ds ** 2
    fails(ck.check_round_spectrum, bad, grid.ds, "round")
    fails(ck.check_round_spectrum, lam[1:], grid.ds, "round")


def test_spectrum_csv(tiny):
    wl, _ = tiny["spectrum-files"]
    label, u, path, cfg, dump, _, _ = next(c for c in wl.calls if "draw" in c[0])
    rep = kl.run_spectrum(cfg, path, dump)
    csv_path = os.path.join(cfg.out, "spectrum.csv")
    ck.check_spectrum_csv(csv_path, rep["eigenvalues"], rep["futaki_residuals"])
    lam = np.array(rep["eigenvalues"])
    fails(ck.check_spectrum_csv, csv_path, np.nextafter(lam, 2 * lam), rep["futaki_residuals"])
    fails(ck.check_spectrum_csv, csv_path, lam[:-1], rep["futaki_residuals"][:-1])

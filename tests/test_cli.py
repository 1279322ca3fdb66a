import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kelab as kl
import kelab.geometry
import kelab.quadrature
from kelab.cli import main
from kelab.serialize import dump_json, load_json, read_csv


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    code = main(
        [
            "pipeline", "--n", "129", "--m", "17",
            "--eps", "0.1", "0.03", "0.01",
            "--tau", "0.5", "--out", str(out), "--seed", "1",
        ]
    )
    assert code == 0
    return out


def test_ke_solve_writes_artifacts(tmp_path):
    out = tmp_path / "ke"
    assert main(["ke-solve", "--n", "257", "--out", str(out)]) == 0
    pot = kl.ReducedPotential.from_dict(load_json(out / "ke_potential.json"))
    pot.validate()
    report = load_json(out / "ke_report.json")
    assert report["residual"] < 1e-8          # solver system residual
    assert report["ode_residual_sup"] < 1e-5  # truncation-level re-evaluation
    # emitted file round-trips through the reader and re-solves
    assert np.max(np.abs(kl.ke_residual(pot))) < 1e-5


def test_ke_solve_small_grid_rejected(tmp_path):
    assert main(["ke-solve", "--n", "8", "--out", str(tmp_path)]) == 1


def test_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert main(["ke-solve", "--n", "257", "--out", str(blocker / "sub")]) == 3


def test_spectrum_command(tmp_path):
    out = tmp_path / "spectra"
    assert main(["ke-solve", "--n", "513", "--out", str(out)]) == 0
    code = main(
        [
            "spectrum", "--potential", str(out / "ke_potential.json"),
            "--out", str(out), "--k", "6", "--dump-eigenfunctions",
        ]
    )
    assert code == 0
    header, data = read_csv(out / "spectrum.csv")
    assert header == ["i", "lambda", "futaki_residual"]
    assert abs(data[0, 1] - 1.0) < 5e-4          # first row: lambda_1 = 1
    assert np.all(data[:, 2] < 1e-2)
    eh, edata = read_csv(out / "eigenfunctions.csv")
    assert eh == ["s", "e1", "e2", "e3", "e4", "e5", "e6"]
    assert edata.shape == (513, 7)


def test_spectrum_rejects_nonconvex(tmp_path):
    grid = kl.SGrid(-15.0, 15.0, 129)
    s = grid.nodes()
    bad = kl.fubini_study_potential(grid).values - 2.0 / np.cosh(s)
    dump_json(
        {"grid": grid.to_dict(), "values": list(bad), "slopes": [0, 2]},
        tmp_path / "bad.json",
    )
    code = main(
        ["spectrum", "--potential", str(tmp_path / "bad.json"), "--out", str(tmp_path)]
    )
    assert code == 1


def test_spectrum_rejects_malformed_file(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main(["spectrum", "--potential", str(bad), "--out", str(tmp_path)]) == 1
    missing = tmp_path / "nope.json"
    assert main(["spectrum", "--potential", str(missing), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_spectrum_rejects_non_finite_values(tmp_path, capsys, bad):
    # the json loader reads NaN and Infinity literals
    grid = kl.SGrid(-15.0, 15.0, 129)
    d = kl.fubini_study_potential(grid).to_dict()
    d["values"][40] = bad
    (tmp_path / "bad.json").write_text(json.dumps(d))
    code = main(["spectrum", "--potential", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "index 40 is not finite" in err


def test_ke_solve_overflowing_grid_is_solver_failure(tmp_path, capsys):
    # a finite s_range whose spacing overflows: the residual is NaN, which
    # fails every comparison with tol
    code = main(["ke-solve", "--n", "129", "--s-range", "-15", "1e308",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "KE residual is not finite" in err
    assert not (tmp_path / "o" / "ke_potential.json").exists()


def test_solver_failure_leaves_no_output_dir(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["ke-solve", "--n", "129", "--s-range", "-15", "1e308", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_failure_before_first_write_leaves_no_output_dir(tmp_path, monkeypatch, capsys):
    import kelab.pipeline

    grid = kl.SGrid(-15.0, 15.0, 129)
    dump_json(kl.fubini_study_potential(grid).to_dict(), tmp_path / "round.json")
    code = main(["spectrum", "--potential", str(tmp_path / "round.json"),
                 "--k", "200", "--out", str(tmp_path / "s")])
    assert code == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "s").exists()

    def fail(*args, **kwargs):
        raise kl.ConvergenceError("KE Newton did not converge")

    monkeypatch.setattr(kelab.pipeline, "solve_ke", fail)
    assert main(["pipeline", "--n", "129", "--m", "17", "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "p").exists()


def test_spectrum_on_exactly_singular_refinement_shift(tmp_path):
    # the fifth seeded draw at n=257 hits an exactly singular inverse-iteration
    # shift next to ~1e10 diagonal entries
    grid = kl.SGrid(-15.0, 15.0, 257)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = kl.random_convex_potential(grid, rng)
    dump_json(u.to_dict(), tmp_path / "draw.json")
    code = main(["spectrum", "--potential", str(tmp_path / "draw.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    _, data = read_csv(tmp_path / "spectrum.csv")
    assert abs(data[0, 1] - 1.0) < 1e-9


@pytest.mark.parametrize(
    "error", [kl.EndpointMismatchError, kl.TrivialLimitError],
)
def test_pipeline_limit_errors_exit_as_solver_failure(tmp_path, monkeypatch, capsys, error):
    import kelab.cli

    def fail(config):
        raise error("no automorphism matches the endpoints")

    monkeypatch.setattr(kelab.cli, "run_full_pipeline", fail)
    assert main(["pipeline", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no automorphism" in err


def test_spectrum_rejects_large_k(tmp_path):
    out = tmp_path / "s2"
    assert main(["ke-solve", "--n", "129", "--out", str(out)]) == 0
    code = main(
        [
            "spectrum", "--potential", str(out / "ke_potential.json"),
            "--out", str(out), "--k", "200",
        ]
    )
    assert code == 1


def test_pipeline_requires_three_eps(tmp_path):
    assert main(["pipeline", "--eps", "0.1", "--out", str(tmp_path)]) == 1
    assert main(["pipeline", "--eps", "0.1", "0.2", "0.3", "--out", str(tmp_path)]) == 1


def test_pipeline_report_schema(small_pipeline):
    rep = load_json(small_pipeline / "report.json")
    assert set(rep["automorphism"]) == {"a", "endpoint_error"}
    assert len(rep["epsilons"]) == 3
    row = rep["per_t"][0]
    assert set(row) == {
        "t", "lambda1", "defect", "C_t", "c", "holo_residual", "eigen_residual"
    }
    assert rep["tau"] == 0.5
    assert set(rep["convergence"]) == {
        "sup_deviation", "rate_exponent", "pde_residual", "holo_defect",
        "weak_product_gap", "eps_newton",
    }
    newton = rep["convergence"]["eps_newton"]
    assert set(newton) == {"1e-01", "3e-02", "1e-02"}
    for counts in newton.values():
        history = counts.pop("history")
        assert set(counts) == {
            "iterations", "factorizations", "gmres_iterations", "ridge_retries"
        }
        assert all(isinstance(v, int) and v >= 0 for v in counts.values())
        # the residual before each Newton step and after the last one
        assert len(history) == counts["iterations"] + 1
        assert all(isinstance(r, float) and r >= 0.0 for r in history)
        assert history[-1] < 1e-9 < history[0]
        # each Newton iteration factors at most once, plus once per ridge retry
        assert counts["factorizations"] <= counts["iterations"] + counts["ridge_retries"]
    assert sum(c["factorizations"] for c in newton.values()) < sum(
        c["iterations"] for c in newton.values()
    )
    # small grids are coarse; the automorphism should still land within a few
    # percent of exp(tau/2)
    assert abs(rep["automorphism"]["a"] - np.exp(0.25)) < 0.05


def test_pipeline_emits_round_trippable_files(small_pipeline):
    from kelab.functionals import DING_CSV_HEADER
    from kelab.geodesic import load_spacetime

    pot = kl.ReducedPotential.from_dict(load_json(small_pipeline / "ke_potential.json"))
    pot.validate()
    pull = kl.ReducedPotential.from_dict(
        load_json(small_pipeline / "pullback_potential.json")
    )
    pull.validate()
    header, _ = read_csv(small_pipeline / "ding_legendre.csv")
    assert header == DING_CSV_HEADER
    sol = load_spacetime(
        small_pipeline / "spacetime_eps_1e-02.json",
        small_pipeline / "spacetime_eps_1e-02.csv",
    )
    assert sol.values.shape == (17, 129)
    assert np.max(np.abs(kl.monge_ampere_residual(sol))) < 1e-8


def test_pipeline_tau_one(tmp_path):
    out = tmp_path / "tau1"
    code = main(
        [
            "pipeline", "--n", "129", "--m", "17",
            "--eps", "0.1", "0.03", "0.01",
            "--tau", "1.0", "--out", str(out),
        ]
    )
    assert code == 0
    rep = load_json(out / "report.json")
    assert rep["automorphism"]["a"] == pytest.approx(np.exp(0.5), rel=1e-2)


def test_pipeline_tau_zero_identity(tmp_path):
    # equal endpoints: the velocity mass vanishes, the automorphism is the
    # identity and the Ding functional is constant along the path
    out = tmp_path / "tau0"
    code = main(
        [
            "pipeline", "--n", "129", "--m", "17",
            "--eps", "0.1", "0.03", "0.01",
            "--tau", "0.0", "--out", str(out),
        ]
    )
    assert code == 0
    rep = load_json(out / "report.json")
    assert rep["trivial_velocity"] is True
    assert rep["automorphism"]["a"] == 1.0
    assert rep["automorphism"]["endpoint_error"] < 1e-12
    assert rep["ding"]["legendre_d_range"] < 5e-5


def test_pipeline_deterministic(tmp_path):
    out = tmp_path / "det"
    args = [
        "pipeline", "--n", "129", "--m", "17",
        "--eps", "0.1", "0.03", "0.01", "--out", str(out), "--seed", "7",
    ]
    assert main(args) == 0
    first = (out / "report.json").read_bytes()
    assert main(args) == 0
    second = (out / "report.json").read_bytes()
    assert first == second


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    dump_json({"n": 129, "m": 17, "tau": 0.3, "out": str(tmp_path / "a")}, cfg)
    out = tmp_path / "b"
    assert main(["ke-solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "ke_potential.json").exists()
    rep = load_json(out / "ke_report.json")
    assert rep["config"]["n"] == 129
    assert rep["config"]["tau"] == 0.3


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": "abc", "m": 17}', "config n: cannot parse 'abc'"),
        ('{"n": 129, "s_range": [-15, 0, 15]}', "config s_range: cannot parse"),
        ('{"nn": 129}', "unknown config key(s): nn"),
        ('{"n": 129, "m": 17', "malformed config file"),
        ("[129, 17]", "config must be a JSON object"),
        ('{"s_range": [-Infinity, 15]}', "s_range must be finite, got -inf, 15.0"),
    ],
)
def test_bad_config_file_is_validation_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["ke-solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["ke-solve", "--tol", "nan", "--n", "129"], "tol must be finite"),
        (["pipeline", "--eps", "0.1", "nan", "0.001", "--n", "129", "--m", "17"],
         "eps must be finite"),
        (["pipeline", "--tol", "nan", "--n", "129", "--m", "17"], "tol must be finite"),
    ],
)
def test_non_finite_flag_is_validation_error(tmp_path, capsys, args, message):
    assert main(args + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "o").exists()


def test_spectrum_round_metric_large_n(tmp_path):
    # the measure-starved end columns push the largest tridiagonal entry to
    # ~1e11 here; the constant-mode guard scales with LAPACK's error on it
    grid = kl.SGrid(-15.0, 15.0, 4097)
    dump_json(kl.fubini_study_potential(grid).to_dict(), tmp_path / "round.json")
    code = main(["spectrum", "--potential", str(tmp_path / "round.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    _, data = read_csv(tmp_path / "spectrum.csv")
    assert np.max(np.abs(data[:, 1] / (data[:, 0] * (data[:, 0] + 1) / 2) - 1)) < 1e-4


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` in every kelab namespace that binds it; returns
    the list the wrapper appends each call's positional arguments to."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "kelab" or mod_name.startswith("kelab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_pipeline_builds_one_geometry_per_fibre(tmp_path, monkeypatch):
    geoms = _count_calls(monkeypatch, kelab.geometry, "fiber_geometry")
    conds = _count_calls(monkeypatch, kelab.quadrature, "dirichlet_conductance")
    m, eps = 17, (0.1, 0.03, 0.01)
    kl.run_full_pipeline(kl.RunConfig(n=129, m=m, eps=eps, out=str(tmp_path)))
    # one per Legendre fibre and per eps fibre
    assert len(geoms) == m * (1 + len(eps))
    assert len(conds) == len(geoms)


def _record_paths(monkeypatch):
    """List every SpacetimePotential constructed from now on."""
    paths = []
    init = kl.SpacetimePotential.__post_init__

    def recording(self):
        init(self)
        paths.append(self)

    monkeypatch.setattr(kl.SpacetimePotential, "__post_init__", recording)
    return paths


def _differencings_per_path(calls, paths):
    """How often each path's full (m, n) values went through time_derivatives."""
    return [sum(args[0] is p.values for args in calls) for p in paths]


def test_pipeline_differences_each_path_once(tmp_path, monkeypatch):
    paths = _record_paths(monkeypatch)
    calls = _count_calls(monkeypatch, kelab.geometry, "time_derivatives")
    eps = (0.1, 0.03, 0.01)
    kl.run_full_pipeline(kl.RunConfig(n=129, m=17, eps=eps, out=str(tmp_path)))
    per_path = _differencings_per_path(calls, paths)
    # the Legendre path and each eps solution, once each
    assert max(per_path) == 1
    assert sum(per_path) == 1 + len(eps)


def test_decomposing_every_fibre_differences_once(monkeypatch):
    grid = kl.SGrid(-15.0, 15.0, 129)
    u0 = kl.solve_ke(grid)
    sweep = kl.solve_epsilon_sweep(u0, kl.pullback_potential(u0, 0.5), (0.1, 0.01), 17)
    calls = _count_calls(monkeypatch, kelab.geometry, "time_derivatives")
    for sol in sweep.values():
        for t in sol.t_grid:
            kl.fiber_decompose(sol, float(t), 6)
    assert _differencings_per_path(calls, list(sweep.values())) == [1, 1]


def test_spectrum_computes_one_conductance(tmp_path, monkeypatch):
    grid = kl.SGrid(-15.0, 15.0, 129)
    dump_json(kl.fubini_study_potential(grid).to_dict(), tmp_path / "round.json")
    conds = _count_calls(monkeypatch, kelab.quadrature, "dirichlet_conductance")
    kl.run_spectrum(kl.RunConfig(out=str(tmp_path), k=6), str(tmp_path / "round.json"))
    assert len(conds) == 1


def test_float_formatting_17g(small_pipeline):
    # every float in the report parses back exactly (shortest-repr safe)
    text = (small_pipeline / "report.json").read_text()
    rep = json.loads(text)
    assert isinstance(rep["automorphism"]["a"], float)


def test_spline_free_commands_do_not_load_scipy_interpolate(tmp_path):
    # only a spline (Legendre path, pullback) needs scipy.interpolate, which
    # pulls in scipy.special and scipy.optimize
    src = os.path.dirname(os.path.dirname(kelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, kelab as kl, kelab.cli\n"
            "def loaded(): return 'scipy.interpolate' in sys.modules\n"
            "print(loaded())\n"
            "cfg = kl.RunConfig(n=129, k=4, out=sys.argv[1])\n"
            "kl.run_ke_solve(cfg)\n"
            "kl.run_spectrum(cfg, sys.argv[1] + '/ke_potential.json')\n"
            "print(loaded())\n"
            "kl.pullback_potential(kl.fubini_study_potential(cfg.grid()), 0.5)\n"
            "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]
    assert (tmp_path / "spectrum.csv").exists()


def test_python_dash_m_kelab():
    src = os.path.dirname(os.path.dirname(kelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kelab", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "pipeline" in proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_kelab_threads_caps_blas_pool():
    # the cap must be set before numpy loads OpenBLAS, which importing the
    # package (before kelab.cli runs) already does
    src = os.path.dirname(os.path.dirname(kelab.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(KELAB_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import os, kelab.cli, numpy as np\n"
            "a = np.ones((400, 400)); a @ a\n"
            "print(len(os.listdir('/proc/self/task')))")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"

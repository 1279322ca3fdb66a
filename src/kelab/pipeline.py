"""End-to-end experiment runner and its machine-readable artifacts.

The full pipeline: solve the Kahler-Einstein ODE, generate the second
Einstein metric by pullback, sweep the epsilon-geodesics, evaluate the Ding
functional reports, expand the velocity field fiber by fiber, classify the
eigenvalue clusters, extract the limiting holomorphic field, check its
time-constancy, and reconstruct the automorphism matching the endpoints.
Everything is deterministic for a fixed config, and floats are emitted with
fixed 17-digit formatting so reports are byte-identical across runs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import limits as lim
from .errors import ValidationError
from .functionals import (
    ding_derivatives,
    fatou_subsequence,
    integrated_defect,
    write_ding_csv,
)
from .geodesic import (
    ke_residual,
    legendre_path,
    monge_ampere_residual,
    save_spacetime,
    solve_epsilon_sweep,
    solve_ke,
    verify_chen_bounds,
)
from .geometry import (
    DEFAULT_S_RANGE,
    ReducedPotential,
    SGrid,
    derivative,
    fiber_geometry,
    pullback_potential,
)
from .quadrature import project_perp, weighted_integral
from .serialize import dump_json, load_json, write_csv
from .spectral import (
    assemble_weighted_laplacian,
    eigendecompose,
    eigenfunction_table,
    futaki_residual,
)

DEFAULT_EPS_SCHEDULE = (1e-1, 1e-2, 1e-3)


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration (see CLI flags of the same names)."""

    n: int = 513
    m: int = 65
    s_range: tuple = DEFAULT_S_RANGE
    eps: tuple = DEFAULT_EPS_SCHEDULE
    tau: float = 0.5
    tol: float = 1e-9
    out: str = "out"
    seed: int = 0
    k: int = 8

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "s_range", (float(self.s_range[0]), float(self.s_range[1])))
        for name, values in (
            ("tol", [self.tol]), ("tau", [self.tau]), ("eps", eps), ("s_range", self.s_range)
        ):
            if not np.all(np.isfinite(values)):
                raise ValidationError(f"{name} must be finite, got {', '.join(map(str, values))}")
        if self.tol <= 0.0:
            raise ValidationError("tolerance must be positive")
        if any(e <= 0.0 for e in eps):
            raise ValidationError("epsilon values must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValidationError("epsilon schedule must be strictly decreasing")
        self.grid()  # validate n and the range

    def grid(self) -> SGrid:
        return SGrid(self.s_range[0], self.s_range[1], self.n)

    def to_dict(self) -> dict:
        return {
            "n": self.n, "m": self.m,
            "s_range": [self.s_range[0], self.s_range[1]],
            "eps": list(self.eps), "tau": self.tau, "tol": self.tol,
            "out": self.out, "seed": self.seed, "k": self.k,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValidationError("config must be a JSON object")
        unknown = sorted(set(d) - set(_PARSERS))
        if unknown:
            raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
        kw = {}
        for key, value in d.items():
            try:
                kw[key] = _PARSERS[key](value)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"config {key}: cannot parse {value!r}") from None
        return cls(**kw)


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def _float_pair(values) -> tuple:
    pair = _floats(values)
    if len(pair) != 2:
        raise ValueError("need two values")
    return pair


_PARSERS = {
    "n": int, "m": int, "seed": int, "k": int, "tau": float, "tol": float,
    "s_range": _float_pair, "eps": _floats, "out": str,
}


def load_config(path) -> RunConfig:
    try:
        d = load_json(path)
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ValidationError(f"malformed config file {path}: {exc}") from None
    return RunConfig.from_dict(d)


def _ensure_outdir(config: RunConfig) -> str:
    os.makedirs(config.out, exist_ok=True)
    return config.out


def run_ke_solve(config: RunConfig) -> dict:
    """Solve the KE ODE and write the potential plus a residual report.

    ``residual`` is the solved system's sup-norm residual; ``ode_residual_sup``
    re-evaluates the discrete ODE at every interior node (including the two
    gauge-pinned ones), so it sits at the local truncation level of the grid
    rather than at the Newton tolerance.
    """
    grid = config.grid()
    u, info = solve_ke(grid, tol=min(config.tol, 1e-9), full_output=True)
    res = ke_residual(u)
    out = _ensure_outdir(config)
    dump_json(u.to_dict(), os.path.join(out, "ke_potential.json"))
    report = {
        "iterations": info["iterations"],
        "residual": info["residual"],
        "ode_residual_sup": float(np.max(np.abs(res))),
        "config": config.to_dict(),
    }
    dump_json(report, os.path.join(out, "ke_report.json"))
    return report


def run_spectrum(config: RunConfig, potential_file: str, dump_eigenfunctions: bool = False) -> dict:
    """Spectrum and eigenfunction-identity residuals for a stored potential."""
    try:
        u = ReducedPotential.from_dict(load_json(potential_file))
    except OSError:
        raise
    except Exception as exc:
        raise ValidationError(f"malformed potential file {potential_file}: {exc}")
    if config.k >= u.grid.n - 2:
        raise ValidationError(f"k={config.k} too large for n={u.grid.n}")
    geom = fiber_geometry(u)
    op = assemble_weighted_laplacian(geom)
    pack = eigendecompose(op, geom, config.k)
    residuals = [futaki_residual(pack, geom, i) for i in range(1, pack.k + 1)]
    rows = [
        [float(i + 1), float(pack.eigenvalues[i]), residuals[i]]
        for i in range(pack.k)
    ]
    out = _ensure_outdir(config)
    write_csv(os.path.join(out, "spectrum.csv"), ["i", "lambda", "futaki_residual"], rows)
    if dump_eigenfunctions:
        hdr = ["s"] + [f"e{j + 1}" for j in range(pack.k)]
        write_csv(os.path.join(out, "eigenfunctions.csv"), hdr, eigenfunction_table(pack, geom))
    return {"eigenvalues": [float(v) for v in pack.eigenvalues], "futaki_residuals": residuals}


def _velocity_holo_defect(sol, t: float) -> float:
    """Holomorphy defect of the full velocity field on one fiber."""
    j = sol.time_index(t)
    geom = sol.geometry(j)
    pperp = project_perp(sol.phi_p[j], geom)
    h = derivative(pperp, geom.grid.ds) / geom.u_pp
    hp = derivative(h, geom.grid.ds)
    return float(weighted_integral(hp * hp, geom))


def run_full_pipeline(config: RunConfig) -> dict:
    """Run every stage and emit the pipeline report plus intermediate files."""
    if len(config.eps) < 3:
        raise ValidationError("cluster analysis needs at least 3 epsilon values")
    grid = config.grid()

    # stage 1: the two Einstein metrics
    u0 = solve_ke(grid, tol=min(config.tol, 1e-9))
    u1 = pullback_potential(u0, config.tau)
    out = _ensure_outdir(config)
    dump_json(u0.to_dict(), os.path.join(out, "ke_potential.json"))
    dump_json(u1.to_dict(), os.path.join(out, "pullback_potential.json"))

    # stage 2: exact geodesic and the epsilon sweep
    leg = legendre_path(u0, u1, config.m)
    sweep, solver_info = solve_epsilon_sweep(
        u0, u1, config.eps, config.m, tol=config.tol, initial=leg, full_output=True
    )
    # paths build their derivatives and fiber geometries on first use, so
    # only after the sweep, whose sparse LU sets the run's peak memory
    leg_report = ding_derivatives(leg)
    write_ding_csv(leg_report, os.path.join(out, "ding_legendre.csv"))

    eps_desc = sorted(sweep, reverse=True)
    ding_reports = {}
    defect_terms = {}
    sup_dev = {}
    pde_residuals = {}
    for eps in eps_desc:
        sol = sweep[eps]
        tag = f"{eps:.0e}"
        save_spacetime(
            sol,
            os.path.join(out, f"spacetime_eps_{tag}.json"),
            os.path.join(out, f"spacetime_eps_{tag}.csv"),
        )
        rep = ding_derivatives(sol)
        ding_reports[eps] = rep
        write_ding_csv(rep, os.path.join(out, f"ding_eps_{tag}.csv"))
        defect_terms[eps] = integrated_defect(rep)
        sup_dev[eps] = float(np.max(np.abs(sol.values - leg.values)))
        pde_residuals[eps] = float(np.max(np.abs(monge_ampere_residual(sol))))
    chen = verify_chen_bounds(sweep)

    log_e = np.log(np.array(eps_desc))
    rate = float(np.polyfit(log_e, np.log([sup_dev[e] for e in eps_desc]), 1)[0])
    a_fitted = [sum(defect_terms[e]) / e for e in eps_desc]

    # stage 3: per-fiber spectral traces and the Fatou-style selection
    t_grid = np.linspace(0.0, 1.0, config.m)
    sol_min = sweep[eps_desc[-1]]
    traces = {}
    for t in t_grid:
        recs = [lim.fiber_decompose(sweep[e], float(t), config.k) for e in eps_desc]
        traces[float(t)] = lim.EpsilonTrace(float(t), tuple(recs))
    g_table = np.stack(
        [ding_reports[e].int_f_exp + ding_reports[e].int_delta_exp for e in eps_desc]
    )
    fatou = fatou_subsequence(np.array(eps_desc), g_table, t_grid)

    # stage 4: extraction on every fiber against the limit (Legendre) geometry
    fields = {}
    per_t = []
    trivial_run = False
    for j, t in enumerate(t_grid):
        tr = traces[float(t)]
        cluster = lim.cluster_analysis(tr, gap_tol=10.0 * grid.ds ** 2)
        try:
            fld = lim.extract_vector_field(tr, cluster, leg.fiber(j), leg.geometry(j))
        except lim.TrivialLimitError:
            fld = lim.trivial_field(float(t), grid.n)
            trivial_run = True
        fields[float(t)] = fld
        per_t.append(
            {
                "t": float(t),
                "lambda1": float(tr.smallest.eigenvalues[0]),
                "defect": float(tr.smallest.defect),
                "C_t": None if fatou.flagged[j] else float(fatou.constants[j]),
                "c": fld.c,
                "holo_residual": fld.holo_residual,
                "eigen_residual": fld.eigen_residual,
            }
        )

    # stage 5: time direction and the automorphism
    nontrivial = {t: f for t, f in fields.items() if not f.trivial}
    if len(nontrivial) >= 5:
        tc_dict = lim.time_constancy(fields, sol_min).to_dict()
    else:
        # velocity mass vanished: phi' is constant, identity automorphism
        tc_dict = None
    mid_t = float(t_grid[config.m // 2])
    fld_mid = fields[mid_t]
    if fld_mid.trivial:
        a_scale, endpoint_err = 1.0, float(
            np.max(np.abs((u1.values - u0.values) - np.mean(u1.values - u0.values)))
        )
    else:
        a_scale, endpoint_err = lim.reconstruct_automorphism(fld_mid, u0, u1)

    holo_series = {e: _velocity_holo_defect(sweep[e], mid_t) for e in eps_desc}
    if fld_mid.trivial:
        weak_gaps = {e: 0.0 for e in eps_desc}
    else:
        weak_gaps = lim.distributional_product_gap(
            sweep, mid_t, fld_mid, leg.fiber(config.m // 2)
        )

    ding_summary = {
        f"{e:.0e}": {
            "dsecond_min": float(ding_reports[e].dsecond.min()),
            "dprime_t0": float(ding_reports[e].dprime[0]),
            "dprime_t1": float(ding_reports[e].dprime[-1]),
            "int_f_exp_min": float(ding_reports[e].int_f_exp.min()),
            "int_delta_exp_min": float(ding_reports[e].int_delta_exp.min()),
        }
        for e in eps_desc
    }
    ding_summary["legendre_d_range"] = float(
        leg_report.ding.max() - leg_report.ding.min()
    )
    ding_summary["legendre_dprime_max"] = float(np.max(np.abs(leg_report.dprime)))

    report = {
        "tau": config.tau,
        "epsilons": [float(e) for e in eps_desc],
        "per_t": per_t,
        "automorphism": {"a": float(a_scale), "endpoint_error": float(endpoint_err)},
        "trivial_velocity": trivial_run,
        "ding": ding_summary,
        "convergence": {
            "sup_deviation": {f"{e:.0e}": sup_dev[e] for e in eps_desc},
            "rate_exponent": rate,
            "pde_residual": {f"{e:.0e}": pde_residuals[e] for e in eps_desc},
            "holo_defect": {f"{e:.0e}": holo_series[e] for e in eps_desc},
            "weak_product_gap": {f"{e:.0e}": weak_gaps[e] for e in eps_desc},
            "eps_newton": {
                f"{e:.0e}": {
                    key: solver_info[e][key]
                    for key in (
                        "iterations", "factorizations", "gmres_iterations",
                        "ridge_retries", "history",
                    )
                }
                for e in eps_desc
            },
        },
        "integrated_defect": {
            f"{e:.0e}": {"f_term": defect_terms[e][0], "delta_term": defect_terms[e][1]}
            for e in eps_desc
        },
        "a_epsilon_fitted": {f"{e:.0e}": a for e, a in zip(eps_desc, a_fitted)},
        "chen_bounds": chen.to_dict(),
        "time_constancy": tc_dict,
        "fatou_selected_fraction": float(np.mean(~fatou.flagged)),
        "config": config.to_dict(),
    }
    dump_json(report, os.path.join(out, "report.json"))
    return report

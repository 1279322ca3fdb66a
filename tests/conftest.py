"""Shared fixtures.  The expensive objects (KE solve, epsilon sweep, fiber
traces) are built once per session and reused by the unit and acceptance
suites."""
import numpy as np
import pytest

import kelab as kl
from kelab.functionals import ding_derivatives
from kelab.geodesic import legendre_path
from kelab.geometry import fiber_geometry

TAU = 0.5
EPS_SCHEDULE = (1e-1, 1e-2, 1e-3)


@pytest.fixture(scope="session")
def grid_1025():
    return kl.SGrid(-15.0, 15.0, 1025)


@pytest.fixture(scope="session")
def fs_1025(grid_1025):
    fs = kl.fubini_study_potential(grid_1025)
    return fs, fiber_geometry(fs)


@pytest.fixture(scope="session")
def ke_pair():
    """KE metric and its pullback on the production grid."""
    grid = kl.SGrid(-15.0, 15.0, 513)
    u0 = kl.solve_ke(grid)
    u1 = kl.pullback_potential(u0, TAU)
    return grid, u0, u1


@pytest.fixture(scope="session")
def geodesic_suite(ke_pair):
    """Exact geodesic, epsilon sweep and all per-path Ding reports."""
    grid, u0, u1 = ke_pair
    leg = legendre_path(u0, u1, 65)
    sweep = kl.solve_epsilon_sweep(u0, u1, EPS_SCHEDULE, m=65)
    reports = {}
    for eps, sol in sweep.items():
        rep = ding_derivatives(sol)
        geoms = [sol.geometry(j) for j in range(sol.t_grid.size)]
        reports[eps] = (sol, geoms, rep)
    return {
        "grid": grid,
        "u0": u0,
        "u1": u1,
        "legendre": leg,
        "leg_report": ding_derivatives(leg),
        "sweep": sweep,
        "reports": reports,
    }


@pytest.fixture(scope="session")
def traces_all(geodesic_suite):
    """Epsilon traces on every fiber of the sweep."""
    sweep = geodesic_suite["sweep"]
    eps_desc = sorted(sweep, reverse=True)
    t_grid = np.linspace(0.0, 1.0, 65)
    traces = {}
    for t in t_grid:
        recs = [kl.fiber_decompose(sweep[e], float(t), 8) for e in eps_desc]
        traces[float(t)] = kl.EpsilonTrace(float(t), tuple(recs))
    return traces


@pytest.fixture(scope="session")
def extracted_fields(geodesic_suite, traces_all):
    """Limiting vector field extracted on every fiber."""
    fields = {}
    for j, (t, tr) in enumerate(sorted(traces_all.items())):
        rep = kl.cluster_analysis(tr)
        fields[t] = kl.extract_vector_field(
            tr, rep, geodesic_suite["legendre"].fiber(j),
            geodesic_suite["legendre"].geometry(j),
        )
    return fields

"""The vanishing-epsilon analysis: eigen-expansion of the velocity field on
each fiber, compactness condition checks, eigenvalue-cluster case analysis,
extraction of the limiting holomorphic vector field, its time-constancy, and
reconstruction of the automorphism matching the two endpoint metrics.

Conventions: a fiber record stores the expansion of the mean-zero velocity
pi_perp phi' in the weighted-Laplacian eigenbasis of its own metric; the
spectral defect sum_i (lambda_i - 1) |a_i|^2 equals the quadratic defect
||dbar phi'||^2 - ||pi_perp phi'||^2 up to the truncation tail, and both are
nonnegative because the defect form is positive semidefinite with the slope
field sitting at eigenvalue exactly 1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EndpointMismatchError,
    TrivialLimitError,
    ValidationError,
)
from .geodesic import SpacetimePotential
from .geometry import (
    FiberGeometry,
    ReducedPotential,
    derivative,
    fiber_geometry,
    pullback_potential,
    second_derivative,
    time_derivatives,
    trapezoid_weights,
)
from .quadrature import (
    dbar_norm_sq,
    inner_product,
    project_perp,
    weighted_integral,
)
from .spectral import assemble_weighted_laplacian, eigendecompose, split_box

# cluster_analysis: a mode carries the limit when its mass exceeds this share
# of the velocity norm; a velocity norm below the floor is a trivial limit
_MASS_FLOOR_FRACTION = 0.02
_TRIVIAL_NORM_FLOOR = 1e-6

def _unit_threshold(eps: float) -> float:
    # operational meaning of "the eigenvalue converges to 1", scaled to the
    # O(eps) defect size
    return max(10.0 * eps ** 0.9, 1e-3)


@dataclass(frozen=True)
class FiberRecord:
    """Spectral data of one fiber at one epsilon."""

    eps: float
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    coefficients: np.ndarray     # a_i = (pi_perp phi', e_i)
    mass: float                  # sum |a_i|^2
    velocity_norm_sq: float      # ||pi_perp phi'||^2
    dbar_sq: float               # ||dbar phi'||^2
    defect: float                # dbar_sq - velocity_norm_sq
    defect_spectral: float       # sum (lambda_i - 1) |a_i|^2 over computed modes


@dataclass(frozen=True)
class EpsilonTrace:
    """Per-epsilon fiber records at a fixed time, epsilon descending."""

    t: float
    records: tuple

    def __post_init__(self):
        recs = tuple(sorted(self.records, key=lambda r: -r.eps))
        object.__setattr__(self, "records", recs)

    @property
    def epsilons(self) -> np.ndarray:
        return np.array([r.eps for r in self.records])

    @property
    def smallest(self) -> FiberRecord:
        return self.records[-1]


def fiber_decompose(solution: SpacetimePotential, t: float, k: int) -> FiberRecord:
    """Expand pi_perp phi' at time t in the fiber's own eigenbasis."""
    j = solution.time_index(t)
    geom = solution.geometry(j)
    op = assemble_weighted_laplacian(geom)
    pack = eigendecompose(op, geom, k)
    pperp = project_perp(solution.phi_p[j], geom)
    coeffs = np.array([inner_product(pperp, e, geom) for e in pack.eigenfunctions])
    l2 = weighted_integral(pperp * pperp, geom)
    dbar = dbar_norm_sq(pperp, geom)
    mass = float(coeffs @ coeffs)
    if mass > l2 * (1.0 + 1e-8):
        raise ValidationError(
            f"Parseval violated at t={t}: sum a_i^2 = {mass:.6e} > {l2:.6e}"
        )
    spectral = float(((pack.eigenvalues - 1.0) * coeffs) @ coeffs)
    return FiberRecord(
        solution.epsilon, pack.eigenvalues, pack.eigenfunctions, coeffs,
        mass, l2, dbar, dbar - l2, spectral,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Per-epsilon compactness conditions for the strong-L2 limit."""

    eps: np.ndarray
    mass_bounded: np.ndarray        # sum |a_i|^2 < A
    eigen_bounded: np.ndarray       # lambda_max < K
    defect_linear: np.ndarray       # defect <= C * eps
    mass_lower_ok: bool             # mass at smallest eps stays above 1/4
    measured_mass: np.ndarray
    measured_lambda_max: np.ndarray
    measured_defect_ratio: np.ndarray

    @property
    def all_hold(self) -> bool:
        return bool(
            self.mass_bounded.all()
            and self.eigen_bounded.all()
            and self.defect_linear.all()
            and self.mass_lower_ok
        )

    def to_dict(self) -> dict:
        return {
            "eps": list(self.eps),
            "mass_bounded": [bool(b) for b in self.mass_bounded],
            "eigen_bounded": [bool(b) for b in self.eigen_bounded],
            "defect_linear": [bool(b) for b in self.defect_linear],
            "mass_lower_ok": self.mass_lower_ok,
            "measured_mass": list(self.measured_mass),
            "measured_lambda_max": list(self.measured_lambda_max),
            "measured_defect_ratio": list(self.measured_defect_ratio),
        }


def check_limit_conditions(
    trace: EpsilonTrace, A: float = 10.0, K: float = 100.0, C: float = 10.0
) -> ConditionReport:
    """Check the three uniform bounds that force a nontrivial strong limit:
    bounded coefficient mass (not vanishing), bounded top eigenvalue, and a
    defect linear in epsilon."""
    if len(trace.records) < 3:
        raise ValidationError("need at least 3 epsilon values")
    eps = trace.epsilons
    mass = np.array([r.mass for r in trace.records])
    lmax = np.array([float(r.eigenvalues[-1]) for r in trace.records])
    ratio = np.array([max(r.defect, 0.0) / r.eps for r in trace.records])
    return ConditionReport(
        eps,
        mass < A,
        lmax < K,
        np.array([r.defect <= C * r.eps for r in trace.records]),
        bool(mass[-1] > 0.25),
        mass,
        lmax,
        ratio,
    )


@dataclass(frozen=True)
class ClusterReport:
    """Case analysis of the eigenvalue trajectories and coefficient masses."""

    case: str                    # "case1" | "case2" | "case2-subcase1" | "trivial"
    k_to_one: int                # leading eigenvalues trending to 1
    cluster_bounds: tuple        # mass-cluster boundaries K_1 < K_2 < ... (1-based)
    truncation_index: int        # modes 1..truncation_index carry the limit
    partial_masses: np.ndarray   # per-mode masses at the smallest epsilon
    eigenvalue_gaps: np.ndarray  # gaps at the smallest epsilon
    unit_multiplicity: int       # eigenvalue-1 cluster size at the smallest epsilon
    n_clusters: int


def cluster_analysis(trace: EpsilonTrace, gap_tol: float | None = None) -> ClusterReport:
    """Classify which eigenvalues trend to 1 and which modes carry mass.

    Mass clusters replicate the truncation bookkeeping of the limit argument:
    K_1 is the first index whose leading partial sum does not vanish, K_2 the
    next, and so on; the process must terminate because the limits of
    distinct clusters are mutually orthogonal unit-eigenvalue eigenfunctions,
    of which there are only unit-multiplicity many.  Mass thresholds are
    relative to the velocity norm, so a spectral window that captures a
    vanishing fraction of a non-vanishing velocity is recognized as the
    escaping-mass scenario (impossible in the continuum) rather than as a
    trivial limit.
    """
    if len(trace.records) < 3:
        raise ValidationError("need at least 3 epsilon values")
    k = trace.smallest.eigenvalues.size
    if k < 2:
        raise ValidationError("need at least 2 eigenpairs per record")
    eps = trace.epsilons
    lam = np.stack([r.eigenvalues for r in trace.records])  # (n_eps, k)
    to_one = np.ones(k, dtype=bool)
    for j, e in enumerate(eps):
        to_one &= (lam[j] - 1.0) <= _unit_threshold(float(e))
    # leading block converging to 1
    k_to_one = 0
    while k_to_one < k and to_one[k_to_one]:
        k_to_one += 1

    masses = np.stack([r.coefficients ** 2 for r in trace.records])
    norm_sq = trace.smallest.velocity_norm_sq
    mult = _unit_mult(trace, gap_tol)
    gaps = np.diff(trace.smallest.eigenvalues)

    if norm_sq < _TRIVIAL_NORM_FLOOR:
        return ClusterReport("trivial", k_to_one, (), 0, masses[-1], gaps, mult, 0)

    carrying = masses[-1] > _MASS_FLOOR_FRACTION * norm_sq
    if k_to_one == k and float(masses[-1].sum()) < 0.25 * norm_sq:
        # all eigenvalues at 1 yet every fixed window misses the velocity:
        # mass escapes to ever-higher modes
        warnings.warn(
            "coefficient mass escapes every fixed spectral window while all "
            "eigenvalues trend to 1; impossible for a finite unit eigenspace",
            stacklevel=2,
        )
        return ClusterReport(
            "case2-subcase1", k_to_one, (), 0, masses[-1], gaps, mult, 0
        )
    if not carrying.any():
        return ClusterReport("trivial", k_to_one, (), 0, masses[-1], gaps, mult, 0)

    case = "case2" if k_to_one == k else "case1"
    # cluster boundaries: K_j is one past the end of each mass-carrying run
    bounds = []
    i = 0
    while i < k:
        if carrying[i]:
            j = i
            while j + 1 < k and carrying[j + 1]:
                j += 1
            bounds.append(j + 2)  # 1-based index after the run
            i = j + 1
        else:
            i += 1
    if case == "case1":
        truncation = max(k_to_one, 1)
    else:
        truncation = int(np.nonzero(carrying)[0].max()) + 1
    n_clusters = len(bounds)
    if case == "case2" and n_clusters > mult:
        warnings.warn(
            f"{n_clusters} mass clusters exceed unit multiplicity {mult}; "
            "finite termination violated (impossible in the continuum)",
            stacklevel=2,
        )
    return ClusterReport(
        case, k_to_one, tuple(bounds), truncation, masses[-1], gaps, mult, n_clusters
    )


def _unit_mult(trace: EpsilonTrace, gap_tol: float | None) -> int:
    lam = trace.smallest.eigenvalues
    if gap_tol is None:
        gap_tol = 1e-2
    return int(np.sum(np.abs(lam - 1.0) <= max(gap_tol, _unit_threshold(float(trace.smallest.eps)))))


def detect_vanishing_spread(trace: EpsilonTrace) -> bool:
    """True when all eigenvalues trend to 1 while every fixed partial sum of
    coefficient mass vanishes (mass escaping to high modes) -- the scenario
    ruled out by finite unit-multiplicity.  ``cluster_analysis`` raises the
    diagnostic warning."""
    return cluster_analysis(trace).case == "case2-subcase1"


@dataclass(frozen=True)
class ExtractedField:
    """Limit eigenfunction, its vector-field factor and the extracted flow
    constant."""

    t: float
    u_limit: np.ndarray
    h: np.ndarray
    c: float
    holo_residual: float
    eigen_residual: float
    norm_sq: float
    trivial: bool = False


def extract_vector_field(
    trace: EpsilonTrace,
    cluster: ClusterReport,
    limit_potential: ReducedPotential,
    limit_geom: FiberGeometry | None = None,
) -> ExtractedField:
    """Build the limiting vector field from the truncated expansion at the
    smallest epsilon and measure its holomorphicity/eigenfunction residuals
    against the limit-fiber operator."""
    if cluster.case == "trivial" or cluster.truncation_index == 0:
        raise TrivialLimitError(f"no coefficient mass survives at t={trace.t}")
    rec = trace.smallest
    kk = min(cluster.truncation_index, rec.coefficients.size)
    u_inf = rec.coefficients[:kk] @ rec.eigenfunctions[:kk]
    if limit_geom is None:
        limit_geom = fiber_geometry(limit_potential)
    norm_sq = weighted_integral(u_inf * u_inf, limit_geom)
    if norm_sq <= 1e-12:
        raise TrivialLimitError(f"extracted limit vanishes at t={trace.t}")
    h, _ = split_box(u_inf, limit_geom)
    c = weighted_integral(h, limit_geom) / limit_geom.mass
    hp = derivative(h, limit_geom.grid.ds)
    holo = weighted_integral(hp * hp, limit_geom)
    op = assemble_weighted_laplacian(limit_geom)
    res = op.apply(u_inf) - u_inf
    eigen_res = math.sqrt(weighted_integral(res * res, limit_geom))
    return ExtractedField(
        trace.t, u_inf, h, float(c), float(holo), float(eigen_res), float(norm_sq)
    )


def trivial_field(t: float, n: int) -> ExtractedField:
    """Placeholder for fibers whose velocity mass vanishes (the
    no-automorphism branch: phi' is constant along the geodesic)."""
    z = np.zeros(n)
    return ExtractedField(t, z, z, 0.0, 0.0, 0.0, 0.0, trivial=True)


def orthogonality_check(
    fields: list[ExtractedField], geom: FiberGeometry, flag_tol: float = 1e-3
) -> tuple[np.ndarray, bool]:
    """Gram matrix of the extracted limits; off-diagonals above ``flag_tol``
    signal cluster contamination."""
    if not fields:
        raise ValidationError("no fields to compare")
    k = len(fields)
    gram = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            gram[i, j] = inner_product(fields[i].u_limit, fields[j].u_limit, geom)
    off = gram - np.diag(np.diag(gram))
    return gram, bool(np.abs(off).max() > flag_tol)


@dataclass(frozen=True)
class TimeConstancyReport:
    t_values: np.ndarray
    c_values: np.ndarray
    c_mean: float
    c_std: float
    c_max_dev: float
    stationarity_residual: float   # d/dt(u_ss h) - d/ds(phi'') in sup norm
    transport_residual: float      # (|dbar phi'|^2)' = phi''_{ss} h defect

    def to_dict(self) -> dict:
        return {
            "t_values": list(self.t_values),
            "c_values": list(self.c_values),
            "c_mean": self.c_mean,
            "c_std": self.c_std,
            "c_max_dev": self.c_max_dev,
            "stationarity_residual": self.stationarity_residual,
            "transport_residual": self.transport_residual,
        }


def time_constancy(
    fields: dict[float, ExtractedField], solution: SpacetimePotential
) -> TimeConstancyReport:
    """Constancy of the extracted flow coefficient across fibers, plus the
    discrete residual of the stationarity identity d/dt(u_ss h) = d/ds(u_tt).
    """
    items = sorted((t, f) for t, f in fields.items() if not f.trivial)
    if len(items) < 5:
        raise ValidationError("need fields on at least 5 fibers")
    t_vals = np.array([t for t, _ in items])
    c_vals = np.array([f.c for _, f in items])
    c_mean = float(c_vals.mean())
    c_std = float(c_vals.std())
    c_dev = float(np.abs(c_vals - c_mean).max())

    ds = solution.grid.ds
    phi_pp = solution.phi_pp
    # assemble u_ss * h on the analyzed fibers and differentiate across them
    rows = np.stack([solution.geometry(solution.time_index(t)).u_pp * f.h for t, f in items])
    if t_vals.size >= 3 and np.allclose(np.diff(t_vals), t_vals[1] - t_vals[0]):
        dtf = float(t_vals[1] - t_vals[0])
        d_rows = time_derivatives(rows, dtf)[0]
        resid = []
        for idx, (t, f) in enumerate(items):
            j = solution.time_index(t)
            lhs = d_rows[idx]
            rhs = derivative(phi_pp[j], ds)
            resid.append(np.max(np.abs(lhs - rhs)[2:-2]))
        stat_res = float(np.max(resid))
    else:
        stat_res = float("nan")

    # transport identity (|dbar phi'|^2)' = phi''_{ss} h on the mid fiber
    t_mid, f_mid = items[len(items) // 2]
    j = solution.time_index(t_mid)
    phi_p = solution.phi_p[j]
    q = derivative(phi_p, ds) ** 2 / solution.geometry(j).u_pp
    lhs = derivative(q, ds)
    rhs = second_derivative(phi_p, ds) * f_mid.h
    transport = float(np.max(np.abs(lhs - rhs)[2:-2]))
    return TimeConstancyReport(
        t_vals, c_vals, c_mean, c_std, c_dev, stat_res, transport
    )


def distributional_product_gap(
    solutions: dict[float, "SpacetimePotential"],
    t: float,
    field: ExtractedField,
    limit_potential: ReducedPotential,
    n_tests: int = 6,
) -> dict[float, float]:
    """Weak-times-strong convergence diagnostic for the metric/field product.

    The metric density u_ss only converges weakly (distributionally) while
    the extracted field converges strongly, so the product u_ss * h is
    controlled by pairing the metric gap against smooth bumps with the limit
    field held fixed:  gap(eps) = max_chi | int (u_ss(eps) - u_ss) h chi ds |.
    Returns the per-epsilon gaps; they should shrink with epsilon.
    """
    grid = limit_potential.grid
    s = grid.nodes()
    ds = grid.ds
    upp_limit = second_derivative(limit_potential.values, ds)
    centers = np.linspace(-4.0, 4.0, n_tests)
    tests = [1.0 / np.cosh(s - c) for c in centers]
    c_q = trapezoid_weights(grid.n, ds)
    gaps: dict[float, float] = {}
    for eps in sorted(solutions, reverse=True):
        sol = solutions[eps]
        diff = (sol.geometry(sol.time_index(t)).u_pp - upp_limit) * field.h
        gaps[eps] = max(abs(float(c_q @ (diff * chi))) for chi in tests)
    return gaps


def reconstruct_automorphism(
    field: ExtractedField,
    u0: ReducedPotential,
    u1: ReducedPotential,
    endpoint_tol: float = 1e-2,
) -> tuple[float, float]:
    """Scaling factor a = e^{c/2} of the automorphism z -> a z generated by
    the extracted field, verified against the endpoint metrics.

    Returns (a, endpoint_error) where the error is the deviation of
    pullback(u1, -c) - u0 from a constant; raises EndpointMismatchError
    beyond ``endpoint_tol``.
    """
    c = field.c
    a = math.exp(c / 2.0)
    diff = pullback_potential(u1, -c).values - u0.values
    err = float(np.max(np.abs(diff - diff.mean())))
    if err > endpoint_tol:
        raise EndpointMismatchError(
            f"pullback by the extracted flow misses the endpoint by {err:.3e}"
        )
    return a, err

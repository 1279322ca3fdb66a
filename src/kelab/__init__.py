"""Numerical laboratory for circle-invariant Kahler-Einstein metrics on the
sphere: weighted Laplacian spectra, Ding functional convexity along
Monge-Ampere geodesics, and extraction of the limiting holomorphic field.

Set KELAB_THREADS to cap the BLAS thread pools; it takes effect here, before
any kelab module imports numpy (an explicitly set OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS or MKL_NUM_THREADS wins)."""
import os

if "KELAB_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["KELAB_THREADS"])

from .errors import (
    ConvergenceError,
    EndpointMismatchError,
    GridValidationError,
    KelabError,
    PositivityError,
    TrivialLimitError,
    ValidationError,
)
from .geometry import (
    DEFAULT_S_RANGE,
    VOLUME,
    FiberGeometry,
    ReducedPotential,
    SGrid,
    fiber_geometry,
    fubini_study_potential,
    pullback_potential,
    random_convex_potential,
)
from .quadrature import (
    dbar_norm_sq,
    inner_product,
    project_perp,
    weighted_integral,
)
from .spectral import (
    SpectralPack,
    WeightedLaplacianOp,
    assemble_weighted_laplacian,
    coercivity_ratio,
    eigendecompose,
    energy_decomposition_residual,
    futaki_residual,
    split_box,
)
from .functionals import (
    DingReport,
    aubin_mabuchi_energy,
    ding_derivatives,
    f_functional,
    fatou_subsequence,
    integrated_defect,
)
from .geodesic import (
    ChenBoundsReport,
    SpacetimePotential,
    ke_residual,
    legendre_geodesic,
    legendre_path,
    monge_ampere_residual,
    solve_epsilon_geodesic,
    solve_epsilon_sweep,
    solve_ke,
    verify_chen_bounds,
)
from .limits import (
    ClusterReport,
    EpsilonTrace,
    ExtractedField,
    FiberRecord,
    check_limit_conditions,
    cluster_analysis,
    distributional_product_gap,
    extract_vector_field,
    fiber_decompose,
    orthogonality_check,
    reconstruct_automorphism,
    time_constancy,
)
from .pipeline import RunConfig, run_full_pipeline, run_ke_solve, run_spectrum

__version__ = "0.1.0"

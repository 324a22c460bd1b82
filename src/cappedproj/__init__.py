"""Exact projection onto the capped simplex, with certificates and baselines.

The main entry points are :func:`project_capped_simplex` for the unit cap,
:func:`project_capped_box` for a general cap, :func:`certify_result` to get
an optimality certificate for the solver's output, and
:func:`enumerate_oracle` as an independent brute-force reference for small
problems.
"""

from .baselines import (
    IterativeResult,
    SolverConfig,
    admm_project,
    dykstra_project,
    project_simplex,
)
from .bench import (
    CSV_COLUMNS,
    DEFAULT_SIZES,
    METHODS,
    BenchPlan,
    BenchRecord,
    run_benchmark,
    summarize,
    write_records,
)
from .errors import (
    CapacityError,
    CappedProjError,
    InconsistentCandidateError,
    InfeasibleError,
    InvalidInputError,
)
from .kkt import (
    DEFAULT_CLASSIFY_TOL,
    DEFAULT_TOL,
    KktCertificate,
    KktReport,
    certify,
    certify_result,
)
from .oracle import (
    GENERATOR_ID,
    ORACLE_MAX_DIM,
    enumerate_oracle,
    random_instance,
)
from .projection import (
    Partition,
    ProjectionInput,
    ProjectionResult,
    project_capped_box,
    project_capped_simplex,
    sort_with_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "BenchPlan",
    "BenchRecord",
    "CSV_COLUMNS",
    "CapacityError",
    "CappedProjError",
    "DEFAULT_CLASSIFY_TOL",
    "DEFAULT_SIZES",
    "DEFAULT_TOL",
    "GENERATOR_ID",
    "InconsistentCandidateError",
    "InfeasibleError",
    "InvalidInputError",
    "IterativeResult",
    "KktCertificate",
    "KktReport",
    "METHODS",
    "ORACLE_MAX_DIM",
    "Partition",
    "ProjectionInput",
    "ProjectionResult",
    "SolverConfig",
    "admm_project",
    "certify",
    "certify_result",
    "dykstra_project",
    "enumerate_oracle",
    "project_capped_box",
    "project_capped_simplex",
    "project_simplex",
    "random_instance",
    "run_benchmark",
    "sort_with_permutation",
    "summarize",
    "write_records",
]

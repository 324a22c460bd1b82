"""Exact projection onto the capped simplex, with certificates and baselines.

The main entry points are :func:`project_capped_simplex` for the unit cap,
:func:`project_capped_box` for a general cap, :func:`certify_result` to get
an optimality certificate for the solver's output, and
:func:`enumerate_oracle` as an independent brute-force reference for small
problems.

Importing the package loads the solver and its certificate only.  The
benchmark harness, the iterative baselines and the oracle load the first
time one of their names, or the submodule itself, is read.
"""

import importlib

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

# Searched in this order for a public name not yet loaded: the oracle and the
# baselines import nothing of each other, and bench imports both, so a name
# loads at most one module it does not need.
_ON_DEMAND = ("oracle", "baselines", "bench")


def __getattr__(name):
    # PEP 562: called only for a name the package does not hold yet
    if name in _ON_DEMAND:
        return importlib.import_module(f".{name}", __name__)
    if name in __all__:
        for module in _ON_DEMAND:
            defined = vars(importlib.import_module(f".{module}", __name__))
            if name in defined:
                globals()[name] = defined[name]
                return defined[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

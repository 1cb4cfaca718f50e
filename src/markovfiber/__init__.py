"""Exact conditional tests for two-way tables under subtable-effect models.

The package builds explicit Markov bases for change-point and
block-diagonal-effect log-linear models, runs a Metropolis walk over the
fiber of tables sharing the observed sufficient statistic, and reports
exact-conditional p-values next to the asymptotic chi-square ones.  Small
fibers can be enumerated outright, and the algebraic layer double-checks
desk-scale bases with a Groebner criterion.
"""

from .tables import (
    Table,
    Rectangle,
    Configuration,
    TableError,
    build_configuration,
    sufficient_statistic,
    degrees_of_freedom,
    read_table_csv,
    write_table_csv,
)
from .models import (
    ModelSpec,
    ModelError,
    INDEPENDENCE,
    CHANGE_POINT,
    OWN_BLOCKS,
    COMMON_BLOCKS,
    GENERAL_BLOCKS,
    load_model,
    save_model,
    model_from_dict,
    model_to_dict,
)
from .moves import (
    Move,
    MoveBasis,
    LazyMoveBasis,
    enumerate_basis,
    basis_for_model,
    random_move,
    is_kernel_move,
)
from .fiber import Fiber, FiberOverflow, enumerate_fiber, is_connected, fiber_pvalue, exact_pvalue
from .fit import ipf_fit, chi_square, g_square, llr_nested, FitResult, make_tracker
from .mcmc import ChainConfig, ChainResult, walk, run_chains, estimate_pvalue, pooled_pvalue
from .toric import GrobnerReport, verify_grobner
from .verify import (
    ConnectivityReport,
    connectivity_range,
    connectivity_sweep,
    indispensability_sweep,
)
from .datasets import dataset, dataset_models, gilby_table, victoria_table

__version__ = "0.1.0"

__all__ = [
    "Table", "Rectangle", "Configuration", "TableError",
    "build_configuration", "sufficient_statistic", "degrees_of_freedom",
    "read_table_csv", "write_table_csv",
    "ModelSpec", "ModelError",
    "INDEPENDENCE", "CHANGE_POINT", "OWN_BLOCKS", "COMMON_BLOCKS", "GENERAL_BLOCKS",
    "load_model", "save_model", "model_from_dict", "model_to_dict",
    "Move", "MoveBasis", "LazyMoveBasis",
    "enumerate_basis", "basis_for_model",
    "random_move", "is_kernel_move",
    "Fiber", "FiberOverflow", "enumerate_fiber", "is_connected", "fiber_pvalue", "exact_pvalue",
    "ipf_fit", "chi_square", "g_square", "llr_nested", "FitResult", "make_tracker",
    "ChainConfig", "ChainResult", "walk", "run_chains", "estimate_pvalue", "pooled_pvalue",
    "GrobnerReport", "verify_grobner",
    "ConnectivityReport", "connectivity_sweep", "connectivity_range", "indispensability_sweep",
    "dataset", "dataset_models", "gilby_table", "victoria_table",
    "__version__",
]

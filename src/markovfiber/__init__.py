"""Exact conditional tests for two-way tables under subtable-effect models.

The package builds explicit Markov bases for change-point and
block-diagonal-effect log-linear models, runs a Metropolis walk over the
fiber of tables sharing the observed sufficient statistic, and reports
exact-conditional p-values next to the asymptotic chi-square ones.  Small
fibers can be enumerated outright, and the algebraic layer double-checks
desk-scale bases with a Groebner criterion.

``import markovfiber`` loads the layers a test runs: tables, models, moves,
fit and mcmc.  The fiber enumerator, the Groebner certificate, the
verification sweeps and the embedded datasets load on first use of one of
their names (``markovfiber.enumerate_fiber``, ``markovfiber.dataset``, ...)
or of the module itself.
"""

import importlib

from .tables import (
    Table,
    Rectangle,
    Configuration,
    MarkovFiberError,
    TableError,
    sufficient_statistic,
    degrees_of_freedom,
    read_table_csv,
    write_table_csv,
)
from .models import (
    ModelSpec,
    ModelError,
    build_configuration,
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
from .fit import ipf_fit, chi_square, g_square, llr_nested, FitResult, make_tracker
from .mcmc import ChainConfig, ChainResult, walk, run_chains, estimate_pvalue, pooled_pvalue

# the names of the layers loaded on first use, by module
_LAZY = {
    "fiber": ("Fiber", "FiberOverflow", "enumerate_fiber", "is_connected", "fiber_pvalue",
              "exact_pvalue"),
    "toric": ("GrobnerReport", "verify_grobner"),
    "verify": ("ConnectivityReport", "connectivity_sweep", "connectivity_range",
               "indispensability_sweep"),
    "datasets": ("dataset", "dataset_models", "gilby_table", "victoria_table"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "Table", "Rectangle", "Configuration", "MarkovFiberError", "TableError",
    "build_configuration", "sufficient_statistic", "degrees_of_freedom",
    "read_table_csv", "write_table_csv",
    "ModelSpec", "ModelError",
    "INDEPENDENCE", "CHANGE_POINT", "OWN_BLOCKS", "COMMON_BLOCKS", "GENERAL_BLOCKS",
    "load_model", "save_model", "model_from_dict", "model_to_dict",
    "Move", "MoveBasis", "LazyMoveBasis",
    "enumerate_basis", "basis_for_model",
    "random_move", "is_kernel_move",
    "ipf_fit", "chi_square", "g_square", "llr_nested", "FitResult", "make_tracker",
    "ChainConfig", "ChainResult", "walk", "run_chains", "estimate_pvalue", "pooled_pvalue",
    *_HOME,
    "__version__",
]


def __getattr__(name: str):
    """A lazily loaded layer, or one of its names, imported on first use
    (PEP 562); the name is then bound here, so later lookups are plain."""
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The names an eager import would bind: the lazy layers and theirs,
    without the machinery that defers them."""
    hooks = {"importlib", "_LAZY", "_HOME", "__getattr__", "__dir__"}
    return sorted((set(globals()) - hooks) | set(_LAZY) | set(_HOME))

"""Bundled example datasets and their models.

gilby: 1725 school children cross-classified by school (8 rows, ordered by
increasing wealth) and clothing neatness (4 columns).  Its change-point
model nests S1 = rows 1-3 of column 1 inside S2 = rows 1-5 of columns 1-2.

victoria: birth month by death month for 82 descendants of Queen Victoria
(12x12, sparse).  Months are stored in seasonal order, March through
February, so the four seasons are contiguous index bands: splitting both
axes at 1, 4, 7, 10 puts spring/summer/autumn/winter on the diagonal, with
the winter band wrapping December into January and February.  The
common-effect block model (one parameter for all diagonal blocks) is tested
inside the own-parameter one (a parameter per season).
"""

from __future__ import annotations

import numpy as np

from .models import COMMON_BLOCKS, CHANGE_POINT, OWN_BLOCKS, ModelSpec
from .tables import MarkovFiberError, Rectangle, Table

__all__ = [
    "GILBY",
    "GILBY_ROW_LABELS",
    "GILBY_COL_LABELS",
    "VICTORIA",
    "VICTORIA_MONTHS",
    "gilby_table",
    "victoria_table",
    "gilby_model",
    "victoria_models",
    "dataset",
    "dataset_models",
    "dataset_labels",
    "DATASET_NAMES",
    "DatasetError",
]

GILBY = (
    (86, 49, 10, 1),
    (102, 116, 24, 3),
    (25, 19, 2, 0),
    (137, 98, 33, 4),
    (209, 222, 73, 16),
    (65, 154, 71, 27),
    (9, 33, 1, 1),
    (3, 60, 51, 21),
)

GILBY_ROW_LABELS = tuple(f"school-{k}" for k in range(1, 9))
GILBY_COL_LABELS = ("I", "II", "III", "IV-V")

# rows and columns both run March..February (seasonal order, see module doc)
VICTORIA_MONTHS = (
    "Mar", "Apr", "May", "Jun", "Jul", "Aug",
    "Sep", "Oct", "Nov", "Dec", "Jan", "Feb",
)

VICTORIA = (
    (0, 0, 2, 1, 0, 0, 0, 0, 0, 1, 1, 0),
    (2, 0, 0, 0, 1, 0, 1, 3, 1, 1, 3, 0),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 2, 1),
    (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0),
    (2, 1, 0, 0, 0, 0, 1, 1, 1, 2, 2, 0),
    (0, 3, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0),
    (0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 2, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1),
    (1, 1, 2, 0, 0, 2, 0, 1, 1, 0, 0, 1),
    (1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 1, 2, 0, 0, 1, 0, 1, 0, 1, 0),
    (0, 1, 0, 0, 0, 0, 0, 1, 0, 2, 1, 0),
)

DATASET_NAMES = ("gilby", "victoria")


class DatasetError(MarkovFiberError, KeyError):
    """Raised for a dataset name that is not embedded."""


_SEASON_BOUNDS = (1, 4, 7, 10, 13)


def gilby_table() -> Table:
    return Table(np.asarray(GILBY, dtype=np.int64))


def victoria_table() -> Table:
    return Table(np.asarray(VICTORIA, dtype=np.int64))


def gilby_model() -> ModelSpec:
    return ModelSpec(
        family=CHANGE_POINT,
        rectangles=(Rectangle(1, 3, 1, 1), Rectangle(1, 5, 1, 2)),
    )


def victoria_models() -> tuple[ModelSpec, ModelSpec]:
    """(null, alternative): common-effect blocks inside own-parameter blocks."""
    common = ModelSpec(family=COMMON_BLOCKS, row_bounds=_SEASON_BOUNDS, col_bounds=_SEASON_BOUNDS)
    own = ModelSpec(family=OWN_BLOCKS, row_bounds=_SEASON_BOUNDS, col_bounds=_SEASON_BOUNDS)
    return common, own


def dataset(name: str) -> Table:
    if name == "gilby":
        return gilby_table()
    if name == "victoria":
        return victoria_table()
    raise DatasetError(f"unknown dataset {name!r}; have {DATASET_NAMES}")


def dataset_labels(name: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(row labels, column labels)."""
    if name == "gilby":
        return GILBY_ROW_LABELS, GILBY_COL_LABELS
    if name == "victoria":
        return VICTORIA_MONTHS, VICTORIA_MONTHS
    raise DatasetError(f"unknown dataset {name!r}; have {DATASET_NAMES}")


def dataset_models(name: str) -> dict[str, ModelSpec]:
    """Built-in model specs for a dataset, keyed by the names the CLI accepts."""
    if name == "gilby":
        return {"change-point": gilby_model()}
    if name == "victoria":
        common, own = victoria_models()
        return {"common-blocks": common, "own-blocks": own}
    raise DatasetError(f"unknown dataset {name!r}; have {DATASET_NAMES}")

"""Bundled tables: frozen content, labels, and model specs."""

import hashlib

import numpy as np
import pytest

from markovfiber.datasets import (
    DATASET_NAMES,
    GILBY_COL_LABELS,
    GILBY_ROW_LABELS,
    VICTORIA_MONTHS,
    dataset,
    dataset_labels,
    dataset_models,
    gilby_model,
    gilby_table,
    victoria_models,
    victoria_table,
)
from markovfiber.models import (
    CHANGE_POINT,
    COMMON_BLOCKS,
    OWN_BLOCKS,
    is_nested,
    require_valid,
)
from markovfiber.tables import Rectangle, read_table_csv, write_table_csv

# sha256 of the plain CSV serialization; any silent edit of the counts trips this
FROZEN_SHA = {
    "gilby": "6473430f441809d1bc557e891bb0aaaf6c85fbdf76f3d7c0885dba2a1983f79c",
    "victoria": "c83cbcaa1e09be018260231a38ad3ae68b2e6fe1230576cc4700db127cb3d98a",
}


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_frozen_checksums(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    write_table_csv(dataset(name), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == FROZEN_SHA[name]
    assert read_table_csv(path) == dataset(name)


def test_gilby_counts():
    t = gilby_table()
    assert (t.R, t.C) == (8, 4)
    assert t.total == 1725
    assert tuple(t.counts[0]) == (86, 49, 10, 1)
    assert t.counts.sum(axis=1).tolist() == [146, 245, 46, 272, 520, 317, 44, 135]
    assert t.counts.sum(axis=0).tolist() == [636, 751, 265, 73]


def test_gilby_labels_and_model():
    assert len(GILBY_ROW_LABELS) == 8 and len(GILBY_COL_LABELS) == 4
    assert GILBY_COL_LABELS[-1] == "IV-V"
    model = gilby_model()
    assert model.family == CHANGE_POINT
    assert model.rectangles == (Rectangle(1, 3, 1, 1), Rectangle(1, 5, 1, 2))
    require_valid(model, 8, 4)


def test_victoria_counts():
    t = victoria_table()
    assert (t.R, t.C) == (12, 12)
    assert t.total == 82
    months = list(VICTORIA_MONTHS)
    # born in May, died in January: 2 descendants
    assert t.counts[months.index("May"), months.index("Jan")] == 2
    assert t.counts[months.index("Mar"), months.index("May")] == 2


def test_victoria_month_order_is_seasonal():
    assert len(set(VICTORIA_MONTHS)) == 12
    assert VICTORIA_MONTHS[0] == "Mar" and VICTORIA_MONTHS[-1] == "Feb"
    # each season occupies one contiguous band of three
    assert VICTORIA_MONTHS[0:3] == ("Mar", "Apr", "May")
    assert VICTORIA_MONTHS[6:9] == ("Sep", "Oct", "Nov")
    assert VICTORIA_MONTHS[9:12] == ("Dec", "Jan", "Feb")


def test_victoria_models_nest():
    common, own = victoria_models()
    assert common.family == COMMON_BLOCKS and own.family == OWN_BLOCKS
    assert own.row_bounds == own.col_bounds == (1, 4, 7, 10, 13)
    require_valid(common, 12, 12)
    require_valid(own, 12, 12)
    assert is_nested(common, own, 12, 12)
    assert not is_nested(own, common, 12, 12)


def test_dataset_dispatch():
    assert dataset("gilby") == gilby_table()
    assert dataset("victoria") == victoria_table()
    with pytest.raises(KeyError):
        dataset("nope")
    with pytest.raises(KeyError):
        dataset_models("nope")
    with pytest.raises(KeyError):
        dataset_labels("nope")


def test_dataset_models_and_labels():
    assert set(dataset_models("gilby")) == {"change-point"}
    assert set(dataset_models("victoria")) == {"common-blocks", "own-blocks"}
    for name in DATASET_NAMES:
        rows, cols = dataset_labels(name)
        t = dataset(name)
        assert len(rows) == t.R and len(cols) == t.C

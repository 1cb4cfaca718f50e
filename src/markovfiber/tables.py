"""Contingency tables, cell geometry, configuration matrices and exact rank.

A model's sufficient statistic for an R x C table of counts is
``t = (row sums, column sums, subtable sums)``.  The 0-1 matrix ``A`` with
``A vec(x) = t`` is called the configuration of the model.  Everything
downstream (move kernels, fibers, degrees of freedom) is phrased in terms of
``A``, so this module pins the conventions once:

* cells are 1-based ``(i, j)`` with ``1 <= i <= R``, ``1 <= j <= C``;
* vectorization is row-major, cell ``(i, j)`` maps to flat index
  ``(i-1)*C + (j-1)``;
* configuration rows are ordered: row sums, then column sums, then subtable
  terms in model-declaration order.

Rank is computed exactly over the rationals because it feeds reported
degrees of freedom.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Table",
    "Rectangle",
    "Configuration",
    "build_configuration",
    "sufficient_statistic",
    "config_rank",
    "degrees_of_freedom",
    "rational_rank",
    "row_space_contains",
    "read_table_csv",
    "write_table_csv",
]


class TableError(ValueError):
    """Raised for malformed tables or dimension mismatches."""


def flat_index(i: int, j: int, C: int) -> int:
    """Row-major flat index of 1-based cell (i, j)."""
    return (i - 1) * C + (j - 1)


def cell_of(flat: int, C: int) -> tuple[int, int]:
    """Inverse of flat_index."""
    return flat // C + 1, flat % C + 1


@dataclass(frozen=True)
class Table:
    """An R x C table of nonnegative integer counts, immutable once built."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.ndim != 2:
            raise TableError(f"table must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise TableError(f"table must be at least 2x2, got {arr.shape[0]}x{arr.shape[1]}")
        if (arr < 0).any():
            raise TableError("table counts must be nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Table":
        return cls(np.array(rows, dtype=np.int64))

    @property
    def R(self) -> int:
        return int(self.counts.shape[0])

    @property
    def C(self) -> int:
        return int(self.counts.shape[1])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def vec(self) -> np.ndarray:
        """Row-major flattening; shares the read-only buffer."""
        return self.counts.reshape(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.counts.shape == other.counts.shape and bool(
            (self.counts == other.counts).all()
        )

    def __hash__(self) -> int:
        return hash((self.counts.shape, self.counts.tobytes()))


@dataclass(frozen=True, order=True)
class Rectangle:
    """Axis-aligned cell range {(i,j) : a1<=i<=a2, b1<=j<=b2}, 1-based inclusive.

    Degenerate single-row or single-column rectangles are allowed; a single
    cell is not (the nested-rectangle basis theory needs at least two cells).
    Grid containment is checked by the model validator, not here.
    """

    a1: int
    a2: int
    b1: int
    b2: int

    def __post_init__(self) -> None:
        if not (1 <= self.a1 <= self.a2 and 1 <= self.b1 <= self.b2):
            raise TableError(f"bad rectangle bounds {self}")
        if self.a1 == self.a2 and self.b1 == self.b2:
            raise TableError("rectangle must contain at least two cells")

    def contains(self, i: int, j: int) -> bool:
        return self.a1 <= i <= self.a2 and self.b1 <= j <= self.b2

    def cells(self) -> Iterator[tuple[int, int]]:
        for i in range(self.a1, self.a2 + 1):
            for j in range(self.b1, self.b2 + 1):
                yield (i, j)

    @property
    def n_cells(self) -> int:
        return (self.a2 - self.a1 + 1) * (self.b2 - self.b1 + 1)

    def contains_rect(self, other: "Rectangle") -> bool:
        return (
            self.a1 <= other.a1
            and other.a2 <= self.a2
            and self.b1 <= other.b1
            and other.b2 <= self.b2
        )


@dataclass(frozen=True)
class Configuration:
    """0-1 constraint matrix mapping vec(x) to (row sums, col sums, subtable sums).

    ``matrix`` has shape (T, R*C) with T = R + C + Q.  ``labels[r]`` names row
    r: "row:i", "col:j" or "sub:q" (q = 1-based term index).
    """

    R: int
    C: int
    matrix: np.ndarray
    labels: tuple[str, ...] = field(compare=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.uint8)
        if mat.shape != (len(self.labels), self.R * self.C):
            raise TableError(
                f"configuration shape {mat.shape} does not match "
                f"{len(self.labels)} labels x {self.R * self.C} cells"
            )
        # every column must carry exactly one row-sum 1 and one col-sum 1
        rowpart = mat[: self.R]
        colpart = mat[self.R : self.R + self.C]
        if not ((rowpart.sum(axis=0) == 1).all() and (colpart.sum(axis=0) == 1).all()):
            raise TableError("each cell must belong to exactly one row sum and one col sum")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def T(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def Q(self) -> int:
        return self.T - self.R - self.C

    def term_cells(self, q: int) -> frozenset[tuple[int, int]]:
        """Cells of the q-th subtable term (1-based q)."""
        row = self.matrix[self.R + self.C + q - 1]
        return frozenset(cell_of(int(f), self.C) for f in np.flatnonzero(row))

    def apply(self, flat_counts: np.ndarray) -> np.ndarray:
        return self.matrix.astype(np.int64) @ np.asarray(flat_counts, dtype=np.int64)


def build_configuration(model, R: int, C: int) -> Configuration:
    """Configuration of ``model`` on the R x C grid.

    Rows: R row sums, C column sums, then one row per subtable term in
    model-declaration order.
    """
    from . import models  # local import; models depends on tables' geometry types

    models.require_valid(model, R, C)
    terms = models.terms(model, R, C)
    T = R + C + len(terms)
    mat = np.zeros((T, R * C), dtype=np.uint8)
    labels = []
    for i in range(1, R + 1):
        mat[i - 1, (i - 1) * C : i * C] = 1
        labels.append(f"row:{i}")
    for j in range(1, C + 1):
        mat[R + j - 1, j - 1 :: C] = 1
        labels.append(f"col:{j}")
    for q, (label, cells) in enumerate(terms):
        for (i, j) in cells:
            mat[R + C + q, flat_index(i, j, C)] = 1
        labels.append(label)
    return Configuration(R=R, C=C, matrix=mat, labels=tuple(labels))


def sufficient_statistic(table: Table, cfg: Configuration) -> np.ndarray:
    """A . vec(x); integer exact."""
    if (table.R, table.C) != (cfg.R, cfg.C):
        raise TableError(
            f"table is {table.R}x{table.C} but configuration is {cfg.R}x{cfg.C}"
        )
    return cfg.apply(table.vec())


def rational_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) integer elimination.

    Each step replaces a row r below the pivot row p by
    (p[col] * r - r[col] * p) / previous pivot; the division is exact, so
    every entry stays an integer minor of the input.  No floating point.
    """
    work = [[int(v) for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == len(work):
            break
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        p = prow[col]
        for r in range(rank + 1, len(work)):
            a = work[r][col]
            work[r] = [(p * x - a * y) // prev for x, y in zip(work[r], prow)]
        prev = p
        rank += 1
    return rank


def row_space_contains(outer_rows: Sequence[Sequence[int]], inner_rows: Sequence[Sequence[int]]) -> bool:
    """True iff every inner row lies in the rational row space of the outer rows."""
    outer = [list(r) for r in outer_rows]
    stacked = outer + [list(r) for r in inner_rows]
    return rational_rank(outer) == rational_rank(stacked)


def config_rank(cfg: Configuration) -> int:
    """Exact rank of the configuration over the rationals."""
    return rational_rank(cfg.matrix.tolist())


def degrees_of_freedom(cfg: Configuration) -> int:
    return cfg.R * cfg.C - config_rank(cfg)


def read_table_csv(path, header: bool = False) -> Table:
    """Read a table of comma-separated counts; ``header`` skips one label row+column."""
    with open(path, newline="") as fp:
        rows = [row for row in csv.reader(fp) if row and any(f.strip() for f in row)]
    if header:
        rows = [row[1:] for row in rows[1:]]
    try:
        data = [[int(f) for f in row] for row in rows]
    except ValueError as exc:
        raise TableError(f"non-integer entry in {path}: {exc}") from exc
    widths = {len(row) for row in data}
    if len(widths) != 1:
        raise TableError(f"ragged rows in {path}: widths {sorted(widths)}")
    return Table.from_rows(data)


def write_table_csv(table: Table, path) -> None:
    with open(path, "w", newline="") as fp:
        for row in table.counts:
            fp.write(",".join(str(int(v)) for v in row) + "\n")

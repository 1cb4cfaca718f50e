"""Contingency tables, cell geometry, configuration matrices and exact rank.

A model's sufficient statistic for an R x C table of counts is
``t = (row sums, column sums, subtable sums)``.  The 0-1 matrix ``A`` with
``A vec(x) = t`` is called the configuration of the model.  Everything
downstream (move kernels, fibers, degrees of freedom) is phrased in terms of
``A``, so this module pins the conventions once:

* cells are 1-based ``(i, j)`` with ``1 <= i <= R``, ``1 <= j <= C``;
* vectorization is row-major, cell ``(i, j)`` maps to flat index
  ``(i-1)*C + (j-1)``;
* configuration rows are ordered: row sums, then column sums, then the
  subtable terms of ``models.terms``, in model-declaration order.

Rank is computed exactly over the rationals because it feeds reported
degrees of freedom.  The fit, the degrees of freedom and the nesting check
all ask for the independent rows of the same few configurations, so the
elimination of each distinct Gram matrix is kept (``independent_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

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
    "independent_rows",
    "row_space_contains",
    "read_table_csv",
    "write_table_csv",
]


class MarkovFiberError(Exception):
    """The base of every error raised on purpose: bad input, a refused
    request or a bound passed; the command line reports each as JSON."""


class TableError(MarkovFiberError, ValueError):
    """Raised for malformed tables or dimension mismatches."""


def flat_index(i: int, j: int, C: int) -> int:
    """Row-major flat index of 1-based cell (i, j)."""
    return (i - 1) * C + (j - 1)


@dataclass(frozen=True)
class Table:
    """An R x C table of nonnegative integer counts, immutable once built."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        try:
            arr = np.asarray(self.counts, dtype=np.int64)
        except OverflowError:
            raise TableError("table counts must fit in 64-bit integers") from None
        if arr.ndim != 2:
            raise TableError(f"table must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise TableError(f"table must be at least 2x2, got {arr.shape[0]}x{arr.shape[1]}")
        if (arr < 0).any():
            raise TableError("table counts must be nonnegative")
        # up to a total of 2**53 every sum is exact in float64 and int64; the
        # float sum is within a factor 2 of it, so the int64 one cannot wrap
        if arr.sum(dtype=np.float64) > 2.0 ** 62 or arr.sum() > 2 ** 53:
            raise TableError("table total exceeds 2**53")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Table":
        return cls(rows)

    @property
    def R(self) -> int:
        return int(self.counts.shape[0])

    @property
    def C(self) -> int:
        return int(self.counts.shape[1])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

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

    ``matrix`` has shape (T, R*C) with T = R + C + Q: R row-sum rows, C
    column-sum rows, then the Q rows of ``models.terms``.
    """

    R: int
    C: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.uint8)
        if mat.ndim != 2 or mat.shape[0] < self.R + self.C or mat.shape[1] != self.R * self.C:
            raise TableError(
                f"configuration shape {mat.shape} does not match at least "
                f"{self.R + self.C} rows x {self.R * self.C} cells"
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

    def apply(self, flat_counts: np.ndarray) -> np.ndarray:
        return self.matrix.astype(np.int64) @ np.asarray(flat_counts, dtype=np.int64)


def build_configuration(model, R: int, C: int) -> Configuration:
    """Configuration of ``model`` on the R x C grid: the one-hot rows of the
    R row sums and of the C column sums, stacked on the model's terms."""
    from . import models  # local import; models depends on tables' geometry types

    models.require_valid(model, R, C)
    rows = np.repeat(np.eye(R, dtype=np.uint8), C, axis=1)
    cols = np.tile(np.eye(C, dtype=np.uint8), R)
    return Configuration(R=R, C=C, matrix=np.vstack([rows, cols, models.terms(model, R, C)]))


def sufficient_statistic(table: Table, cfg: Configuration) -> np.ndarray:
    """A . vec(x); integer exact."""
    if (table.R, table.C) != (cfg.R, cfg.C):
        raise TableError(
            f"table is {table.R}x{table.C} but configuration is {cfg.R}x{cfg.C}"
        )
    return cfg.apply(table.vec())


def pivot_rows(rows: Iterable[Sequence[int]]) -> list[int]:
    """Indices, in increasing order, of rows that are linearly independent
    over Q and span the row space, by fraction-free (Bareiss) integer
    elimination.

    Each step replaces a row r below the pivot row p by
    (p[col] * r - r[col] * p) / previous pivot; the division is exact, so
    every entry stays an integer minor of the input.  No floating point.
    A worked row is its input row plus a combination of the pivot rows
    above it, so the input rows of the pivots are independent.
    """
    work = [[int(v) for v in row] for row in rows]
    order = list(range(len(work)))
    if not work:
        return []
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
        order[rank], order[pivot] = order[pivot], order[rank]
        prow = work[rank][col:]
        p = prow[0]
        # the rows below are 0 left of col, so only the rest changes
        for r in range(rank + 1, len(work)):
            row = work[r]
            a = row[col]
            row[col:] = [(p * x - a * y) // prev for x, y in zip(row[col:], prow)]
        prev = p
        rank += 1
    return sorted(order[:rank])


def rational_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q: the number of pivot rows of the exact elimination."""
    return len(pivot_rows(rows))


def gram(matrix) -> np.ndarray:
    """The Gram matrix M M^T of an integer matrix, in int64.  Its rank is
    that of M, and its pivot rows are independent rows of M (a relation
    c^T M = 0 among rows of M gives c^T M M^T = 0), so the exact routines
    run on T x T entries instead of T x cells."""
    m = np.asarray(matrix, dtype=np.int64)
    return m @ m.T


# distinct Gram matrices whose pivot rows are kept: a run's set-up needs one
# (Gilby, the 24x24 grid) to three (Victoria's llr: both models, and the
# nesting check's outer rows stacked on the inner ones), of 1.6 to 19 kB each
_PIVOT_CACHE_SIZE = 32


@lru_cache(maxsize=_PIVOT_CACHE_SIZE)
def _gram_pivots(shape: tuple[int, ...], data: bytes) -> tuple[int, ...]:
    """``pivot_rows`` of the int64 Gram matrix of the given shape and bytes."""
    return tuple(pivot_rows(np.frombuffer(data, dtype=np.int64).reshape(shape).tolist()))


def independent_rows(matrix) -> list[int]:
    """Indices, in increasing order, of rows of an integer matrix that are
    independent over Q and span its row space: the pivot rows of its Gram
    matrix.  Each distinct Gram matrix is eliminated once per process; the
    list returned is the caller's own."""
    g = gram(matrix)
    return list(_gram_pivots(g.shape, g.tobytes()))


def row_space_contains(outer_rows: Sequence[Sequence[int]], inner_rows: Sequence[Sequence[int]]) -> bool:
    """True iff every inner row lies in the rational row space of the outer rows."""
    outer = [list(r) for r in outer_rows]
    stacked = outer + [list(r) for r in inner_rows]
    return len(independent_rows(outer)) == len(independent_rows(stacked))


def config_rank(cfg: Configuration) -> int:
    """Exact rank of the configuration over the rationals."""
    return len(independent_rows(cfg.matrix))


def degrees_of_freedom(cfg: Configuration) -> int:
    return cfg.R * cfg.C - config_rank(cfg)


def read_table_csv(path, header: bool = False) -> Table:
    """Read a table of comma-separated counts; ``header`` skips one label row+column."""
    import csv

    try:
        with open(path, newline="", encoding="utf-8") as fp:
            rows = [row for row in csv.reader(fp) if row and any(f.strip() for f in row)]
        if header:
            rows = [row[1:] for row in rows[1:]]
        data = [[int(f) for f in row] for row in rows]
    except (ValueError, csv.Error) as exc:  # not an integer, not UTF-8, or too long a field
        raise TableError(f"{path} is not a table of integers: {exc}") from exc
    widths = {len(row) for row in data}
    if len(widths) != 1:
        raise TableError(f"ragged rows in {path}: widths {sorted(widths)}")
    return Table.from_rows(data)


def write_table_csv(table: Table, path) -> None:
    with open(path, "w", newline="") as fp:
        for row in table.counts:
            fp.write(",".join(str(int(v)) for v in row) + "\n")

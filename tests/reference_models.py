"""Per-cell geometry of the model families, by loops over the bounds.

The package never asks which stratum, band or block one cell lies in; the
loop reference builder of the move bases and the fit checks do, so the
lookups live here, with the tests.
"""

from markovfiber.models import (
    CHANGE_POINT,
    COMMON_BLOCKS,
    GENERAL_BLOCKS,
    OWN_BLOCKS,
    ModelError,
    ModelSpec,
    n_blocks,
)


def row_band(model: ModelSpec, i: int) -> int:
    """Band index of row i: 1..N inside the boundaries, N+1 beyond them."""
    rb = model.row_bounds
    for k in range(len(rb) - 1):
        if rb[k] <= i < rb[k + 1]:
            return k + 1
    return len(rb)  # leftover band, general model only


def col_band(model: ModelSpec, j: int) -> int:
    cb = model.col_bounds
    for l in range(len(cb) - 1):
        if cb[l] <= j < cb[l + 1]:
            return l + 1
    return len(cb)


def cell_block(model: ModelSpec, R: int, C: int, i: int, j: int):
    """Block index (k, l) of a cell in a block-family model, or None if the
    cell lies beyond the covered region (general model only)."""
    if model.family not in (OWN_BLOCKS, COMMON_BLOCKS, GENERAL_BLOCKS):
        raise ModelError(f"cell_block is defined for block families, not {model.family}")
    if not (1 <= i <= R and 1 <= j <= C):
        raise ModelError(f"cell ({i},{j}) outside {R}x{C} grid")
    N = n_blocks(model)
    k, l = row_band(model, i), col_band(model, j)
    if k > N or l > N:
        return None
    return (k, l)


def cell_stratum(model: ModelSpec, R: int, C: int, i: int, j: int) -> int:
    """Change-point stratum of a cell: n such that (i,j) in S_n \\ S_{n-1},
    with S_0 empty and S_{N+1} the full grid."""
    if model.family != CHANGE_POINT:
        raise ModelError(f"cell_stratum is defined for change-point models, not {model.family}")
    if not (1 <= i <= R and 1 <= j <= C):
        raise ModelError(f"cell ({i},{j}) outside {R}x{C} grid")
    for n, rect in enumerate(model.rectangles, start=1):
        if rect.contains(i, j):
            return n
    return len(model.rectangles) + 1

"""Per-cell geometry of the model families, by loops over the bounds.

The package never asks which stratum, band or block one cell lies in; the
loop reference builder of the move bases and the fit checks do, so the
lookups live here, with the tests.  ``term_membership`` decides, cell by
cell from those lookups, which subtable terms hold each cell: the oracle
of ``models.terms``.
"""

from markovfiber.models import (
    CHANGE_POINT,
    COMMON_BLOCKS,
    GENERAL_BLOCKS,
    INDEPENDENCE,
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


def term_membership(model: ModelSpec, R: int, C: int) -> list[list[int]]:
    """The subtable terms as 0-1 lists over the row-major cells, one per
    term in declaration order.  A cell of stratum n lies in rectangles
    S_n .. S_N; a cell of a diagonal block (k, k) lies in the terms whose
    blocks include k: term k for own blocks, the one term for common
    blocks, k's group for general blocks."""
    if model.family == INDEPENDENCE:
        return []
    if model.family == CHANGE_POINT:
        def inside(q, i, j):
            return cell_stratum(model, R, C, i, j) <= q
        Q = len(model.rectangles)
    else:
        N = n_blocks(model)
        if model.family == OWN_BLOCKS:
            groups = [(k,) for k in range(1, N + 1)]
        elif model.family == COMMON_BLOCKS:
            groups = [tuple(range(1, N + 1))]
        else:
            groups = list(model.groups)

        def inside(q, i, j):
            block = cell_block(model, R, C, i, j)
            return block is not None and block[0] == block[1] and block[0] in groups[q - 1]
        Q = len(groups)
    return [[int(inside(q, i, j)) for i in range(1, R + 1) for j in range(1, C + 1)]
            for q in range(1, Q + 1)]

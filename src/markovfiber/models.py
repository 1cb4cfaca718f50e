"""Model families for subtable effects and their nesting relations.

Five families over an R x C grid:

* ``independence`` — row and column main effects only;
* ``change-point`` — one extra effect per rectangle in a nested chain
  S_1 c S_2 c ... c S_N c I (strict inclusions);
* ``own-blocks`` — diagonal blocks I_11 .. I_NN cut by shared row/column
  boundaries, one effect per block;
* ``common-blocks`` — same blocks, a single effect on S = I_11 u ... u I_NN;
* ``general-blocks`` — boundaries may stop short of the grid edge and the
  effects sit on disjoint unions of diagonal blocks.

A model spec carries geometry only; the log-linear parameters it implies are
never materialized (the fit works in the coordinates of independent
configuration rows).  ``terms`` is the one place the geometry becomes
cells: a (Q, R*C) 0-1 array of the subtable terms, which the
configuration (``build_configuration``), the move builder and the
certificates all read.
Nesting between two models is decided by exact rational row-space containment
of their configurations, so any pair of families can be compared.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .tables import Configuration, MarkovFiberError, Rectangle, row_space_contains

__all__ = [
    "INDEPENDENCE",
    "CHANGE_POINT",
    "OWN_BLOCKS",
    "COMMON_BLOCKS",
    "GENERAL_BLOCKS",
    "ModelSpec",
    "ModelError",
    "validate",
    "require_valid",
    "terms",
    "build_configuration",
    "n_blocks",
    "is_nested",
    "model_to_dict",
    "model_from_dict",
    "load_model",
    "save_model",
]

INDEPENDENCE = "independence"
CHANGE_POINT = "change-point"
OWN_BLOCKS = "own-blocks"
COMMON_BLOCKS = "common-blocks"
GENERAL_BLOCKS = "general-blocks"

_FAMILIES = (INDEPENDENCE, CHANGE_POINT, OWN_BLOCKS, COMMON_BLOCKS, GENERAL_BLOCKS)


class ModelError(MarkovFiberError, ValueError):
    """Raised when a model fails validation or cannot give the moves asked of it."""


@dataclass(frozen=True)
class ModelSpec:
    """Geometry of one model.  Fields are used per family:

    change-point: ``rectangles``;
    block families: ``row_bounds``/``col_bounds`` (1 = r_1 < ... < r_{N+1});
    general-blocks: additionally ``groups``, disjoint tuples of 1-based block
    indices; each group's union is one effect term.
    """

    family: str
    rectangles: tuple[Rectangle, ...] = ()
    row_bounds: tuple[int, ...] = ()
    col_bounds: tuple[int, ...] = ()
    groups: tuple[tuple[int, ...], ...] = ()


def n_blocks(model: ModelSpec) -> int:
    return len(model.row_bounds) - 1


def validate(model: ModelSpec, R: int, C: int) -> list[str]:
    """Empty list iff the model is valid on the R x C grid; else violations."""
    bad: list[str] = []
    if R < 2 or C < 2:
        bad.append(f"grid must be at least 2x2, got {R}x{C}")
    if model.family not in _FAMILIES:
        return bad + [f"unknown family {model.family!r}"]

    if model.family == INDEPENDENCE:
        if model.rectangles or model.row_bounds or model.col_bounds or model.groups:
            bad.append("independence model carries no geometry")
        return bad

    if model.family == CHANGE_POINT:
        if model.row_bounds or model.col_bounds or model.groups:
            bad.append("change-point model uses rectangles only")
        rects = model.rectangles
        if not rects:
            bad.append("change-point model needs at least one rectangle")
            return bad
        for n, rect in enumerate(rects, start=1):
            if not (rect.a2 <= R and rect.b2 <= C):
                bad.append(f"rectangle {n} {rect} exceeds {R}x{C} grid")
        for n in range(1, len(rects)):
            outer, inner = rects[n], rects[n - 1]
            if not outer.contains_rect(inner) or outer == inner:
                bad.append(f"strict inclusion violated: rectangle {n} does not strictly contain rectangle {n - 1}")
        last = rects[-1]
        if last.n_cells >= R * C:
            bad.append("outermost rectangle must be strictly inside the grid")
        return bad

    # block families
    if model.rectangles:
        bad.append("block models use boundary vectors, not rectangles")
    rb, cb = model.row_bounds, model.col_bounds
    if len(rb) < 2 or len(cb) < 2:
        bad.append("need at least one block (two boundaries per axis)")
        return bad
    if len(rb) != len(cb):
        bad.append("row and column boundary vectors must have equal length")
        return bad
    for name, bounds, limit in (("row", rb, R), ("col", cb, C)):
        if bounds[0] != 1:
            bad.append(f"{name} boundaries must start at 1")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            bad.append(f"{name} boundaries must be strictly increasing")
        if model.family == GENERAL_BLOCKS:
            if bounds[-1] > limit + 1:
                bad.append(f"{name} boundaries exceed grid")
        elif bounds[-1] != limit + 1:
            bad.append(f"{name} boundaries must end at {limit + 1} to cover the grid")

    N = len(rb) - 1
    if model.family == GENERAL_BLOCKS:
        if not model.groups:
            bad.append("general block model needs at least one group")
        seen: set[int] = set()
        for g, grp in enumerate(model.groups, start=1):
            if not grp:
                bad.append(f"group {g} is empty")
            for n in grp:
                if not (1 <= n <= N):
                    bad.append(f"group {g} references block {n} outside 1..{N}")
                if n in seen:
                    bad.append(f"groups are not disjoint: block {n} repeated")
                seen.add(n)
    elif model.groups:
        bad.append("only the general block model carries groups")
    return bad


def require_valid(model: ModelSpec, R: int, C: int) -> None:
    bad = validate(model, R, C)
    if bad:
        raise ModelError("; ".join(bad))


def terms(model: ModelSpec, R: int, C: int) -> np.ndarray:
    """The subtable terms on the R x C grid as a (Q, R*C) uint8 array, one
    row per term in declaration order, 1 on the row-major flat cells of the
    term: a change-point term is its rectangle, an own-blocks term one
    diagonal block, the common-blocks term every diagonal block, and a
    general-blocks term the diagonal blocks of its group."""
    if model.family == INDEPENDENCE:
        boxes = []
    elif model.family == CHANGE_POINT:
        boxes = [[(r.a1, r.a2, r.b1, r.b2)] for r in model.rectangles]
    else:
        # the diagonal blocks as boxes of 1-based inclusive bounds
        rb, cb = model.row_bounds, model.col_bounds
        diag = [(r1, r2 - 1, c1, c2 - 1) for r1, r2, c1, c2 in zip(rb, rb[1:], cb, cb[1:])]
        if model.family == OWN_BLOCKS:
            boxes = [[box] for box in diag]
        elif model.family == COMMON_BLOCKS:
            boxes = [diag]
        else:
            boxes = [[diag[n - 1] for n in grp] for grp in model.groups]
    out = np.zeros((len(boxes), R, C), dtype=np.uint8)
    for q, term in enumerate(boxes):
        for a1, a2, b1, b2 in term:
            out[q, a1 - 1:a2, b1 - 1:b2] = 1
    return out.reshape(len(boxes), R * C)


def build_configuration(model: ModelSpec, R: int, C: int) -> Configuration:
    """Configuration of ``model`` on the R x C grid: the one-hot rows of the
    R row sums and of the C column sums, stacked on the model's terms."""
    require_valid(model, R, C)
    rows = np.repeat(np.eye(R, dtype=np.uint8), C, axis=1)
    cols = np.tile(np.eye(C, dtype=np.uint8), R)
    return Configuration(R=R, C=C, matrix=np.vstack([rows, cols, terms(model, R, C)]))


def is_nested(inner: ModelSpec, outer: ModelSpec, R: int, C: int) -> bool:
    """True iff inner's sufficient statistic is a linear function of outer's.

    Decided by exact row-space containment of the two configurations, so the
    answer does not depend on the families lining up structurally.  Only the
    inner rows that are not already outer rows are ranked with the outer
    ones: a copy of an outer row never changes a rank (on Victoria the
    common- inside own-blocks check ranks 29 stacked rows instead of 53).
    """
    outer_rows = build_configuration(outer, R, C).matrix.tolist()
    known = set(map(tuple, outer_rows))
    extra = [row for row in build_configuration(inner, R, C).matrix.tolist()
             if tuple(row) not in known]
    return not extra or row_space_contains(outer_rows, extra)


def model_to_dict(model: ModelSpec) -> dict:
    out: dict = {"family": model.family}
    if model.rectangles:
        out["rectangles"] = [[r.a1, r.a2, r.b1, r.b2] for r in model.rectangles]
    if model.row_bounds:
        out["row_bounds"] = list(model.row_bounds)
    if model.col_bounds:
        out["col_bounds"] = list(model.col_bounds)
    if model.groups:
        out["groups"] = [list(g) for g in model.groups]
    return out


def model_from_dict(data: dict) -> ModelSpec:
    try:
        family = data["family"]
    except KeyError:
        raise ModelError("model spec needs a 'family' field") from None
    if family not in _FAMILIES:
        raise ModelError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    rects = tuple(Rectangle(*_ints(r, "rectangles", 4))
                  for r in _list(data.get("rectangles", []), "rectangles"))
    return ModelSpec(
        family=family,
        rectangles=rects,
        row_bounds=_ints(data.get("row_bounds", []), "row_bounds"),
        col_bounds=_ints(data.get("col_bounds", []), "col_bounds"),
        groups=tuple(_ints(g, "groups") for g in _list(data.get("groups", []), "groups")),
    )


def _list(value, field: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"model field {field!r} must be a list, got {value!r}")
    return value


def _ints(value, field: str, length: int | None = None) -> tuple[int, ...]:
    """The integers of one list-valued model field, or a ``ModelError``
    naming the field (floats, booleans and numeric strings are not integers)."""
    try:  # operator.index takes JSON true and false as 1 and 0
        out = tuple(operator.index(v) for v in _list(value, field) if not isinstance(v, bool))
    except TypeError:
        out = ()
    if len(out) < len(value):
        raise ModelError(f"model field {field!r} must hold integers, got {value!r}")
    if length is not None and len(out) != length:
        raise ModelError(f"model field {field!r} needs lists of {length} integers, "
                         f"got {value!r}")
    return out


def load_model(path) -> ModelSpec:
    import json

    with open(path, encoding="utf-8") as fp:
        try:
            data = json.load(fp)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, too long
            raise ModelError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ModelError(f"model file {path} must hold a JSON object")
    return model_from_dict(data)


def save_model(model: ModelSpec, path) -> None:
    import json

    with open(path, "w") as fp:
        json.dump(model_to_dict(model), fp, indent=2)
        fp.write("\n")

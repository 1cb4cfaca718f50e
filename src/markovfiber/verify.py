"""Exhaustive desk-scale verification of move-basis claims.

Everything here is deliberately brute force: enumerate every table of a
bounded grand total, group the tables into fibers by their sufficient
statistic, join each table to its image under every applicable move, and
label the connected components of that graph.  The point is to gate the
structural claims behind the move generators (every fiber connected, every
basic move indispensable) on instances small enough to check completely,
cross-validated against the depth-first fiber oracle.

Indispensability needs no graph: a move z is indispensable when the fiber
of z+ is {z+, z-}, so its verdict is a lookup of z+ and z- in the fiber
labels of the universe of tables of total |z+|, the universe a
connectivity sweep at that total builds, and costs what that sweep holds.

Whole-family sweeps cut the model count down by symmetry: relabeling rows
and columns is a bijection of tables that commutes with the statistic and
with move generation, so only one representative per relabeling class needs
the full check.  A few raw (unrelabeled) models are spot-checked directly
each run to keep that reduction honest.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement

import numpy as np

from . import models as _models
from .fiber import FiberOverflow, enumerate_fiber, is_connected
from .models import ModelSpec, build_configuration
from .moves import enumerate_basis, format_move
from .tables import Rectangle
from .toric import canonicalize

__all__ = [
    "FiberWitness",
    "ConnectivityReport",
    "IndispensabilityReport",
    "SuiteReport",
    "connectivity_sweep",
    "connectivity_range",
    "indispensability_sweep",
    "change_point_models",
    "change_point_suite",
    "own_blocks_suite",
    "common_blocks_suite",
]


def _row_view(tables: np.ndarray) -> np.ndarray:
    """One opaque element per row; memcmp order, so searchsorted works."""
    a = np.ascontiguousarray(tables)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()


# bytes a table universe may take; the largest a suite builds, 6x6 at total 5, takes 29 MB
UNIVERSE_BYTES = 256 << 20


def _universe_size(R: int, C: int, total: int) -> int:
    """The number n of R x C tables of the given total; FiberOverflow if their
    R*C bytes of table and 2*total of cell list each pass ``UNIVERSE_BYTES``."""
    n = math.comb(R * C + total - 1, total)
    if n * (R * C + 2 * total) > UNIVERSE_BYTES:
        raise FiberOverflow(f"the {n:,} {R}x{C} tables of total {total} would take "
                            f"more than {UNIVERSE_BYTES >> 20} MB")
    return n


def _universe(R: int, C: int, total: int):
    """All R x C tables with the given grand total, bytewise-sorted.

    Returns (tables, view): a (n, R*C) uint8 array and its void row view.
    Generated as multisets of cells, so every table appears exactly once.
    The multisets come in lexicographic order, which lists their tables in
    descending byte order (the first differing cell id is the cell where
    the earlier multiset has more), so filling rows from the end sorts them.
    """
    n_cells = R * C
    n = _universe_size(R, C, total)
    combos = combinations_with_replacement(range(n_cells), total)
    idx = np.fromiter(chain.from_iterable(combos), dtype=np.uint16,
                      count=n * total).reshape(n, total)
    # one pass per chosen cell fills the uint8 tables in place; a bincount
    # over every (table, cell) slot allocates eight times their size
    tables = np.zeros((n, n_cells), dtype=np.uint8)
    rows = np.arange(n - 1, -1, -1)
    for col in idx.T:
        tables[rows, col] += 1
    return tables, _row_view(tables)


# bytes of rows per lookup in ``_move_edges`` and ``_indispensable``:
# bounds their temporaries
_CHUNK_BYTES = 1 << 22


class _Universes(dict):
    """Table universes by (R, C, total), each built on first use.

    One lives for one suite or one ``connectivity_range`` call, so the
    universes (24 MB for 6x6 at total 5) are freed when it returns.
    """

    def __missing__(self, key):
        value = self[key] = _universe(*key)
        return value


def _fiber_ids(t_all: np.ndarray, total: int) -> np.ndarray:
    """Each table's fiber: the rank of its statistic row among the distinct
    rows, in lexicographic order.

    Every coordinate lies in [0, total], so reading a row as a number in
    radix total + 1, most significant first, keeps the lexicographic order,
    and ``np.unique`` sorts one int64 per table.  Rows too long for 62 bits
    fall back to sorting the rows themselves.
    """
    if (total + 1) ** t_all.shape[1] < 2 ** 62:
        key = np.zeros(t_all.shape[0], dtype=np.int64)
        for column in t_all.T:
            key = key * (total + 1) + column
        _, fiber_id = np.unique(key, return_inverse=True)
    else:
        _, fiber_id = np.unique(t_all, axis=0, return_inverse=True)
    return fiber_id.ravel()


def _lookup(tables: np.ndarray, view: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row of ``rows`` in the sorted universe (tables, view)."""
    pos = np.minimum(np.searchsorted(view, _row_view(rows)), view.size - 1)
    assert (tables[pos] == rows).all()  # each found row equals its key
    return pos


def _parts(store, k: np.ndarray, n_cells: int):
    """(z-, z+) of the stored moves ``k``, one dense uint8 row per move.  A
    stored move lists each of its cells once."""
    off, flat, coef = (np.asarray(a) for a in store[:3])
    size = off[k + 1] - off[k]
    move = np.repeat(np.arange(k.size), size)
    at = np.repeat(off[k] - np.cumsum(size) + size, size) + np.arange(move.size)
    flat, coef = flat[at], coef[at]
    neg = np.zeros((k.size, n_cells), dtype=np.uint8)
    pos = np.zeros_like(neg)
    up = coef > 0
    pos[move[up], flat[up]] = coef[up]
    neg[move[~up], flat[~up]] = -coef[~up]
    return neg, pos


def _fibers(tables: np.ndarray, cfg, total: int):
    """(t_all, fiber_id, sizes): each table's statistic and fiber, and the
    member count of each fiber.

    The product is exact in uint8: a statistic is at most the total, which
    the uint8 tables already keep below 256; a float64 copy of the tables
    would be the sweep's largest array.
    """
    t_all = tables @ np.asarray(cfg.matrix, dtype=np.uint8).T
    fiber_id = _fiber_ids(t_all, total)
    return t_all, fiber_id, np.bincount(fiber_id)


def _move_edges(basis, universes: _Universes, R: int, C: int, total: int):
    """Both ends (src, dst) of every edge x -> x + z of the move graph on
    the tables of the given total, as indices into its universe.

    A move z applies to x exactly when x = y + z- for a table y of total
    ``total - |z-|``, so running y over that smaller universe gives every
    such x once, and x + z = y + z+.  Moves of one degree |z-| share that
    universe and are made dense and translated a chunk at a time, so a move
    too large for the total is never made dense.
    """
    tables, view = universes[R, C, total]
    degree = basis.store.degrees()[0]
    src, dst = [], []
    for d in np.unique(degree[degree <= total]):
        base = universes[R, C, total - int(d)][0]
        moves = np.flatnonzero(degree == d)
        step = max(1, _CHUNK_BYTES // base.nbytes)
        for k in np.array_split(moves, -(-moves.size // step)):
            neg, pos = _parts(basis.store, k, R * C)
            src.append(_lookup(tables, view, (base + neg[:, None]).reshape(-1, R * C)))
            dst.append(_lookup(tables, view, (base + pos[:, None]).reshape(-1, R * C)))
    if not src:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    return np.concatenate(src), np.concatenate(dst)


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component label of each of ``n`` nodes joined by the undirected edges
    (u[k], v[k]): the smallest node of its component.

    Min-label hooking with pointer jumping.  Each round hooks the larger of
    the two roots an edge joins onto the smaller, then jumps every pointer
    to its root; edges whose ends share a root drop out for good.  Labels
    only decrease, so no cycle can form, and a node's label is never larger
    than the node, so each component's root is its smallest node.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        live = lu != lv
        if not live.any():
            return label
        u, v = u[live], v[live]
        lu, lv = lu[live], lv[live]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


@dataclass(frozen=True)
class FiberWitness:
    """A disconnected fiber: its statistic, size, component count, and one
    member from each of two different components (flat row-major)."""

    t: tuple[int, ...]
    size: int
    n_components: int
    members: tuple[tuple[int, ...], tuple[int, ...]]

    def to_dict(self) -> dict:
        return {
            "t": list(self.t),
            "size": self.size,
            "n_components": self.n_components,
            "members": [list(m) for m in self.members],
        }


@dataclass(frozen=True)
class ConnectivityReport:
    R: int
    C: int
    total: int
    n_tables: int
    n_fibers: int
    n_multi: int
    n_disconnected: int
    witnesses: tuple[FiberWitness, ...]
    cross_checks: int
    # wall time of the sweep; outside equality and ``to_dict``, so reports
    # of identical sweeps stay equal and serialise identically
    sweep_s: float = field(default=0.0, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.n_disconnected == 0

    def to_dict(self) -> dict:
        return {
            "grid": [self.R, self.C],
            "total": self.total,
            "n_tables": self.n_tables,
            "n_fibers": self.n_fibers,
            "n_multi_member_fibers": self.n_multi,
            "n_disconnected": self.n_disconnected,
            "connected": self.ok,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "cross_checks": self.cross_checks,
        }


# witnesses kept per sweep
_MAX_WITNESSES = 3


def _built(model: ModelSpec, R: int, C: int, types=None):
    """The configuration and the enumerated basis that every check of one
    model shares (``enumerate_basis`` refuses a grid too large to list)."""
    basis = enumerate_basis(model, R, C, types)
    return build_configuration(model, R, C), basis


def connectivity_sweep(model: ModelSpec, R: int, C: int, total: int,
                       types: tuple[str, ...] | None = None, cross_check: int = 2,
                       seed: int = 0) -> ConnectivityReport:
    """Check that the model's move basis connects every fiber of the given
    grand total, by exhausting all tables of that total.

    The edges x -> x + z are found by translation: z applies to x exactly
    when x = y + z- with y a table of total ``total - |z-|``, so each move
    maps that smaller universe onto its sources (y + z-) and their images
    (y + z+), and nothing is tested against tables a move cannot reach.

    ``types`` restricts the basis (witness hunting); ``cross_check``
    fibers are re-enumerated with the depth-first oracle and must agree,
    membership and connectivity both.
    """
    cfg, basis = _built(model, R, C, types)
    return _sweep(_Universes(), cfg, basis, total, cross_check, seed)


def _sweep(universes: _Universes, cfg, basis, total: int, cross_check: int,
           seed: int) -> ConnectivityReport:
    t0 = time.perf_counter()
    R, C = cfg.R, cfg.C
    tables, _ = universes[R, C, total]
    n = tables.shape[0]

    t_all, fiber_id, sizes = _fibers(tables, cfg, total)
    n_fibers = sizes.size
    n_multi = int(np.count_nonzero(sizes >= 2))

    src, dst = _move_edges(basis, universes, R, C, total)
    assert (fiber_id[src] == fiber_id[dst]).all()  # a move never leaves its fiber
    label = _components(n, src, dst)
    # each component has one root (label[x] == x) and lies in one fiber
    roots = np.flatnonzero(label == np.arange(n))
    n_components = np.bincount(fiber_id[roots], minlength=n_fibers)
    disconnected = np.flatnonzero(n_components >= 2)

    witnesses = []
    for f in disconnected[:_MAX_WITNESSES]:
        members = np.flatnonzero(fiber_id == f)
        other = members[label[members] != label[members[0]]][0]
        witnesses.append(FiberWitness(
            t=tuple(int(v) for v in t_all[members[0]]),
            size=int(sizes[f]),
            n_components=int(n_components[f]),
            members=(tuple(int(v) for v in tables[members[0]]),
                     tuple(int(v) for v in tables[other])),
        ))

    checks = 0
    if cross_check and n_multi:
        rng = random.Random(seed)
        multi_fibers = np.flatnonzero(sizes >= 2)
        for f in rng.sample(list(multi_fibers), min(cross_check, len(multi_fibers))):
            t = tuple(int(v) for v in t_all[np.flatnonzero(fiber_id == f)[0]])
            fib = enumerate_fiber(t, cfg)
            mine = sorted(tuple(int(v) for v in row)
                          for row in tables[fiber_id == f])
            if sorted(fib.members) != mine:
                raise AssertionError(f"fiber membership mismatch at t={t}")
            if is_connected(fib, basis) != (n_components[f] == 1):
                raise AssertionError(f"connectivity verdict mismatch at t={t}")
            checks += 1

    return ConnectivityReport(
        R=R, C=C, total=total, n_tables=n, n_fibers=n_fibers, n_multi=n_multi,
        n_disconnected=int(disconnected.size), witnesses=tuple(witnesses),
        cross_checks=checks, sweep_s=time.perf_counter() - t0,
    )


def connectivity_range(model: ModelSpec, R: int, C: int, max_total: int,
                       types: tuple[str, ...] | None = None):
    """Connectivity sweeps for totals 2..max_total (smaller fibers are
    singletons, connected vacuously), each cross-checking two fibers as
    ``connectivity_sweep`` does by default.  The basis is built once, and
    the table universes once each, freed on return."""
    cfg, basis = _built(model, R, C, types)
    return _range(_Universes(), cfg, basis, max_total, cross_check=2, seed=0)


def _range(universes: _Universes, cfg, basis, max_total: int, cross_check: int,
           seed: int):
    # the last universe is the largest: refuse it before the first sweep
    _universe_size(cfg.R, cfg.C, max(max_total, 2))
    return [_sweep(universes, cfg, basis, total, cross_check, seed + total)
            for total in range(2, max_total + 1)]


@dataclass(frozen=True)
class IndispensabilityReport:
    R: int
    C: int
    n_moves: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "grid": [self.R, self.C],
            "n_moves_unsigned": self.n_moves,
            "all_indispensable": self.ok,
            "failures": list(self.failures),
        }


def indispensability_sweep(model: ModelSpec, R: int, C: int) -> IndispensabilityReport:
    """Every unsigned basis move must have the two-element fiber {z+, z-}.

    The verdicts are read off the fiber labels of the universe of tables
    of each move degree (see ``_indispensable``), so the sweep holds what
    a connectivity sweep at that total holds.
    """
    return _indispensability(_Universes(), *_built(model, R, C))


def _indispensable(universes: _Universes, cfg, basis) -> np.ndarray:
    """Whether each stored move z is indispensable: the fiber of z+ is
    exactly {z+, z-} (Takemura & Aoki 2004).

    One pass per move degree d: the universe of total-d tables, labelled by
    fiber, holds both z+ and z- when |z-| = |z+| = d, and z is indispensable
    iff they share a fiber of exactly two members.  A move with |z-| != |z+|
    leaves its fiber, so it is not.  Moves are made dense and looked up a
    chunk at a time.
    """
    R, C = cfg.R, cfg.C
    down, degree = basis.store.degrees()
    balanced = degree == down
    verdict = np.zeros(degree.size, dtype=bool)
    step = max(1, _CHUNK_BYTES // (R * C))
    for d in np.unique(degree[balanced]).tolist():
        tables, view = universes[R, C, d]
        _, fiber_id, sizes = _fibers(tables, cfg, d)
        moves = np.flatnonzero(balanced & (degree == d))
        for lo in range(0, moves.size, step):
            k = moves[lo:lo + step]
            neg, pos = _parts(basis.store, k, R * C)
            f = fiber_id[_lookup(tables, view, pos)]
            verdict[k] = (f == fiber_id[_lookup(tables, view, neg)]) & (sizes[f] == 2)
    return verdict


def _indispensability(universes: _Universes, cfg, basis) -> IndispensabilityReport:
    verdict = _indispensable(universes, cfg, basis)
    failures = tuple(format_move(basis.move(k)) for k in np.flatnonzero(~verdict))
    return IndispensabilityReport(R=cfg.R, C=cfg.C, n_moves=len(basis), failures=failures)


def _rectangles(R: int, C: int):
    for a1 in range(1, R + 1):
        for a2 in range(a1, R + 1):
            for b1 in range(1, C + 1):
                for b2 in range(b1, C + 1):
                    if (a2 - a1 + 1) * (b2 - b1 + 1) >= 2:
                        yield Rectangle(a1, a2, b1, b2)


def change_point_models(R: int, C: int, max_rects: int = 2):
    """Every valid change-point model on the grid with 1..max_rects nested
    rectangles (the outermost rectangle must leave part of the grid out)."""
    rects = [r for r in _rectangles(R, C) if r.n_cells < R * C]
    for r in rects:
        yield ModelSpec(family=_models.CHANGE_POINT, rectangles=(r,))
    if max_rects >= 2:
        for outer in rects:
            for inner in rects:
                if inner != outer and outer.contains_rect(inner):
                    yield ModelSpec(family=_models.CHANGE_POINT,
                                    rectangles=(inner, outer))


@dataclass(frozen=True)
class SuiteReport:
    name: str
    models_raw: int
    models_checked: int
    raw_spot_checks: int
    connectivity_failures: tuple[str, ...]
    indispensability_failures: tuple[str, ...]
    witnesses: tuple[str, ...]
    n_fibers_checked: int

    @property
    def ok(self) -> bool:
        return not self.connectivity_failures and not self.indispensability_failures

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "models_raw": self.models_raw,
            "models_checked": self.models_checked,
            "raw_spot_checks": self.raw_spot_checks,
            "n_multi_member_fibers_checked": self.n_fibers_checked,
            "connectivity_failures": list(self.connectivity_failures),
            "indispensability_failures": list(self.indispensability_failures),
            "witnesses": list(self.witnesses),
            "ok": self.ok,
        }


def _describe(model: ModelSpec, R: int, C: int) -> str:
    if model.family == _models.CHANGE_POINT:
        inner = " ".join(
            f"[{r.a1}..{r.a2}]x[{r.b1}..{r.b2}]" for r in model.rectangles)
        return f"{R}x{C} change-point {inner}"
    return (f"{R}x{C} {model.family} rows={list(model.row_bounds)} "
            f"cols={list(model.col_bounds)}")


def _transpose(model: ModelSpec) -> ModelSpec:
    return ModelSpec(family=model.family, rectangles=tuple(
        Rectangle(r.b1, r.b2, r.a1, r.a2) for r in model.rectangles))


# raw models spot-checked per grid, and the seed of the suites' draws
_SPOT_CHECKS = 2
_SUITE_SEED = 0


def change_point_suite(max_dim: int = 4, max_total: int = 5) -> SuiteReport:
    """Connectivity and indispensability for every change-point model with
    one or two nested rectangles on every grid up to max_dim^2, over all
    fibers of total <= max_total.

    Models are grouped into relabeling classes (``toric.canonicalize``
    anchors the rectangles at the upper-left corner; a model and its
    transpose share a class); one representative per class is fully
    checked, plus a few random unreduced models per grid.
    """
    rng = random.Random(_SUITE_SEED)
    universes = _Universes()
    conn_fail: list[str] = []
    ind_fail: list[str] = []
    fibers_checked = 0
    classes: dict[tuple[int, int, ModelSpec], None] = {}  # ordered set
    raw_by_grid: dict[tuple[int, int], list[ModelSpec]] = {}
    for R in range(2, max_dim + 1):
        for C in range(2, max_dim + 1):
            grid_models = list(change_point_models(R, C))
            raw_by_grid[R, C] = grid_models
            for m in grid_models:
                canon = canonicalize(m, R, C)[0]
                if (R, C, canon) not in classes and (C, R, _transpose(canon)) not in classes:
                    classes[R, C, canon] = None

    def run(model: ModelSpec, R: int, C: int) -> None:
        nonlocal fibers_checked
        label = _describe(model, R, C)
        cfg, basis = _built(model, R, C)
        for rep in _range(universes, cfg, basis, max_total, cross_check=1,
                          seed=rng.randrange(10**6)):
            fibers_checked += rep.n_multi
            if not rep.ok:
                conn_fail.append(f"{label} total={rep.total}: "
                                 f"{rep.n_disconnected} disconnected")
        ind = _indispensability(universes, cfg, basis)
        if not ind.ok:
            ind_fail.append(f"{label}: {len(ind.failures)} dispensable")

    for R, C, model in classes:
        run(model, R, C)
    spot = 0
    for (R, C), grid_models in raw_by_grid.items():
        for m in rng.sample(grid_models, min(_SPOT_CHECKS, len(grid_models))):
            run(m, R, C)
            spot += 1

    return SuiteReport(
        name="change-point",
        models_raw=sum(len(ms) for ms in raw_by_grid.values()),
        models_checked=len(classes), raw_spot_checks=spot,
        connectivity_failures=tuple(conn_fail),
        indispensability_failures=tuple(ind_fail), witnesses=(),
        n_fibers_checked=fibers_checked,
    )


def _block_model(family: str, row_bounds, col_bounds) -> ModelSpec:
    return ModelSpec(family=family, row_bounds=tuple(row_bounds),
                     col_bounds=tuple(col_bounds))


OWN_SUITE_GEOMETRIES = (
    (2, 2, (1, 2, 3), (1, 2, 3)),
    (3, 4, (1, 2, 4), (1, 3, 5)),
    (4, 4, (1, 3, 5), (1, 3, 5)),
    (6, 6, (1, 4, 7), (1, 3, 7)),
    (3, 3, (1, 2, 3, 4), (1, 2, 3, 4)),
    (4, 4, (1, 2, 3, 5), (1, 2, 3, 5)),
    (4, 5, (1, 2, 3, 5), (1, 2, 4, 6)),
    (6, 6, (1, 3, 5, 7), (1, 3, 5, 7)),
)

COMMON_SUITE_GEOMETRIES = (
    (3, 3, (1, 2, 3, 4), (1, 2, 3, 4)),
    (4, 4, (1, 2, 3, 5), (1, 2, 3, 5)),
    (4, 6, (1, 2, 3, 5), (1, 3, 5, 7)),
    (5, 5, (1, 2, 4, 6), (1, 2, 4, 6)),
    (6, 6, (1, 3, 5, 7), (1, 3, 5, 7)),
)


def _block_suite(name: str, family: str, geometries, controls,
                 reduced: tuple[str, ...], max_total: int) -> SuiteReport:
    """The full basis must connect every fiber of total <= max_total on each
    geometry; on each control geometry the reduced types must leave a
    disconnected witness fiber at some total."""
    universes = _Universes()
    conn_fail: list[str] = []
    witnesses: list[str] = []
    fibers_checked = 0
    for R, C, rb, cb in geometries:
        model = _block_model(family, rb, cb)
        label = _describe(model, R, C)
        for rep in _range(universes, *_built(model, R, C), max_total,
                          cross_check=1, seed=_SUITE_SEED):
            fibers_checked += rep.n_multi
            if not rep.ok:
                conn_fail.append(f"{label} total={rep.total}")
    for R, C, rb, cb in controls:
        model = _block_model(family, rb, cb)
        cfg, basis = _built(model, R, C, reduced)
        for total in range(2, max_total + 1):
            rep = _sweep(universes, cfg, basis, total, cross_check=0, seed=0)
            if not rep.ok:
                w = rep.witnesses[0]
                witnesses.append(
                    f"{_describe(model, R, C)} types={','.join(reduced)} "
                    f"total={total} t={list(w.t)} size={w.size}")
                break
    return SuiteReport(
        name=name, models_raw=len(geometries), models_checked=len(geometries),
        raw_spot_checks=0, connectivity_failures=tuple(conn_fail),
        indispensability_failures=(), witnesses=tuple(witnesses),
        n_fibers_checked=fibers_checked,
    )


def own_blocks_suite(max_total: int = 5) -> SuiteReport:
    """Own-parameter block models, two and three blocks, grids up to 6x6:
    the Type I(+II) basis connects every fiber of total <= max_total; with
    three blocks, Type I alone must leave a disconnected witness fiber."""
    three_block_3x3_4x4 = OWN_SUITE_GEOMETRIES[4:6]
    return _block_suite("own-blocks", _models.OWN_BLOCKS, OWN_SUITE_GEOMETRIES,
                        three_block_3x3_4x4, ("I",), max_total)


def common_blocks_suite(max_total: int = 5) -> SuiteReport:
    """Common-effect block models with three blocks, grids up to 6x6: the
    Type I-IV basis connects every fiber of total <= max_total; Types I-III
    alone must leave a disconnected witness fiber."""
    return _block_suite("common-blocks", _models.COMMON_BLOCKS, COMMON_SUITE_GEOMETRIES,
                        COMMON_SUITE_GEOMETRIES[:2], ("I", "II", "III"), max_total)

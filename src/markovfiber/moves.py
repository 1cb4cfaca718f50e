"""Markov-basis move generation for subtable-effect models.

A move is an integer table z with A z = 0; adding z (or -z) steps between
tables in the same fiber.  The bases constructed here are:

* change-point models: all degree-2 basic moves
  (i,j)(i',j') - (i',j)(i,j') whose corner strata balance — the unique
  minimal Markov basis for the nested-rectangle configuration;
* own-parameter block models: Type I, plus degree-3 loops whose six cells
  sit in pairwise-distinct off-diagonal blocks (Type II) — again the unique
  minimal basis (Type II is vacuous when N = 2);
* common-effect and general block models: Types I-IV, where Type III loops
  carry one +1 and one -1 cell in distinct diagonal blocks and Type IV is a
  degree-4 double interchange between two diagonal blocks, including its
  transpose and the degenerate index coincidences that produce entries of
  +-2 (those non-square-free moves are required: dropping them disconnects
  small fibers, which the brute-force oracle demonstrates).

Each type has one numpy kernel, which maps (slots, n) arrays of index
tuples (rows and columns, one tuple per column) to ``(k, n)`` arrays of
flat cells with the type's coefficients; Types II and III share the loop
kernel.  Whether a tuple's move balances, and which type it has, depends
only on the bands its indices fall in: blocks for the block families, and
for change-point and independence models the runs of rows or columns whose
cells lie in the same terms.  So moves are generated by band configuration,
one band per index slot: ``_configurations`` streams each kernel's
configurations, the product of a table of row-band tuples and one of
column-band tuples, a few thousand at a time, decides each on one
representative tuple and keeps those that balance and have a wanted type,
with their tuple counts.  Two tuples of one configuration can give one move
up to sign, and a Type I tuple with i1 = i2 or j1 = j2 gives none; one
rule, ``_once``, keeps one tuple per move (Type I: i1 < i2 and j1 < j2;
Type IV with i1 = i2 and i3 = i4: j3 <= j4), and it is the only filter of
either basis.  Every move is canonicalized to a key (the sorted signed-cell
codes, in the orientation whose lowest cell has a positive coefficient; a
sorting network sorts a whole pass at once) and stored in that one sign in
a ``_Store``, the one form of a move set: flat arrays of int32 offsets,
int16 cells and int8 coefficients, one type code byte per move, and the
coefficients negated.  The loops have about (bands per axis)^6
configurations, Types I and IV ^4: this saves most where bands are few and
wide, and with bands one row wide each configuration holds one tuple and
costs what one tuple does.

One rule, ``_move_types``, gives every family its types; a ``types``
argument restricts them (the verification sweeps use this to exhibit
disconnection witnesses), and a change-point model takes Type I alone.
``enumerate_basis`` streams every kept configuration's band product through
its kernel, a few thousand tuples per pass, into the store in configuration
order (I, II/III, IV, IVt), so the build holds the store and one pass, and
stores every tuple that ``_once`` keeps.
``basis_for_model`` enumerates grids up to 400 cells
(``ENUMERATION_THRESHOLD``); larger grids get a lazy basis, which holds the
kept configurations in a table and draws a uniform type, one of its
configurations in proportion to its tuple count and uniform indices in its
bands (Type I draws two indices of one band as an ordered pair): every type
has the same share of the draws before ``_once`` drops the repeats, and the
kept draws of a type are uniform over its moves.  Both bases give the walk
the same sampler, which draws indices into a store (the enumerated basis's
own, or one lazy batch refilled in place), and the walk draws the sign
uniformly, which keeps the proposal symmetric (Diaconis & Sturmfels 1998).
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, groupby, permutations, product
from typing import NamedTuple

import numpy as np

from . import models as _models
from .tables import Configuration, TableError, flat_index

__all__ = [
    "Move",
    "MoveBasis",
    "LazyMoveBasis",
    "enumerate_basis",
    "basis_for_model",
    "random_move",
    "is_kernel_move",
    "format_move",
    "dump_moves",
]

TYPE_NAMES = ("I", "II", "III", "IV", "IVt")
# grids of more cells get a lazy basis from ``basis_for_model``
ENUMERATION_THRESHOLD = 400
_TYPE_CODE = {name: k for k, name in enumerate(TYPE_NAMES)}

# A canonical key holds the signed-cell codes flat * 5 + coef + 2 of one
# move (coefficients are +-1 or +-2), sorted and padded with the largest
# value of the key dtype: to its kernel's cell count in an enumeration pass,
# and to the widest move, Type IV with eight cells, in a lazy batch.  Codes
# and flat cell ids are int16 up to 6,553 cells, so on every enumerated grid
# (``ENUMERATION_THRESHOLD``), and int32 beyond.
_KEY_WIDTH = 8
# Index tuples, and band configurations, generated per numpy pass; the
# build's working memory is a few times this many, whatever the size of the
# basis.
_CHUNK = 1 << 13
# Index tuples drawn per lazy batch: enough to spread the fixed cost of the
# numpy calls over about 1,000 moves on a 24x24 four-block grid (``_once``
# drops 0.5% of the draws there), few enough that a batch's arrays (tens of
# kB) leave the resident high-water mark where it is.
_LAZY_BATCH = 1024
# Band configurations a lazy basis may hold: every block model up to 14
# bands per axis, in a table of about 50 bytes per configuration that
# balances (27 MB for 14 common blocks, about 1.4 times that while it is
# built: ``_joined``).
_LAZY_CONFIGS = 1 << 20


@dataclass(frozen=True)
class Move:
    """Sparse move: ((i, j, coef), ...) sorted by cell, plus a type tag."""

    entries: tuple[tuple[int, int, int], ...]
    mtype: str

    @property
    def degree(self) -> int:
        return sum(c for _, _, c in self.entries if c > 0)

    def negated(self) -> "Move":
        return Move(tuple((i, j, -c) for i, j, c in self.entries), self.mtype)


def format_move(move: Move) -> str:
    cells = " ".join(f"{i},{j}:{c:+d}" for i, j, c in move.entries)
    return f"{move.degree} {move.mtype}  {cells}"


def _code_type(cells: int) -> str:
    """Typecode of the signed-cell codes and flat cell ids on a grid of this
    many cells: int16 while every code and the pad fit, int32 beyond."""
    return "h" if 5 * cells < np.iinfo(np.int16).max else "i"


class _Store(NamedTuple):
    """A move set: per-move int32 offsets into the entries, each entry's
    flat cell id (int16, or int32 on grids above 6,553 cells) and int8
    coefficient, one type code byte per move, and ``neg``, the coefficients
    negated, one byte an entry, so that a walk takes either sign of a move
    without multiplying.  Move k is entries ``off[k]:off[k + 1]``."""

    off: array
    flat: array
    coef: array
    tcode: array
    neg: array

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(|z-|, |z+|) of every move, summed in the store's own arrays."""
        starts = np.asarray(self.off)[:-1]
        return tuple(np.add.reduceat(np.maximum(np.asarray(c), 0), starts, dtype=np.int8)
                     for c in (self.neg, self.coef))


def _append(store: _Store, keys: np.ndarray, tcodes: np.ndarray) -> None:
    """Append the moves with these (n, k) keys, and their uint8 type codes,
    to a store whose flat cell ids have the keys' dtype; each key decodes
    to its cells in ascending order.  ``neg`` is left to ``_negate``."""
    off, flat, coef, tcode, _ = store
    pad = np.iinfo(keys.dtype).max
    live = (keys != pad).view(np.int8)
    off.frombytes((np.cumsum(live.sum(axis=1, dtype=np.int32), dtype=np.int32)
                   + off[-1]).tobytes())
    keys = np.ascontiguousarray(keys)  # the boolean gather below reads in C order
    codes = keys[keys != pad]
    flats = codes // 5
    flat.frombytes(flats.tobytes())
    codes -= 5 * flats
    coefs = codes.astype(np.int8)
    coefs -= 2
    coef.frombytes(coefs.tobytes())
    tcode.frombytes(tcodes.tobytes())


def _negate(store: _Store) -> None:
    """Make ``store.neg`` the store's coefficients negated."""
    del store.neg[:]
    store.neg.frombytes(np.negative(np.frombuffer(store.coef, dtype=np.int8)).tobytes())


def _move_at(store: _Store, k: int, C: int) -> Move:
    """Move k of a store."""
    off, flat, coef, tcode, _ = store
    entries = tuple(
        (flat[p] // C + 1, flat[p] % C + 1, coef[p])
        for p in range(off[k], off[k + 1])
    )
    return Move(entries, TYPE_NAMES[tcode[k]])


class MoveBasis:
    """Enumerated move set, one sign per move, held in one ``_Store``
    (``store``), which the basis never changes: on a 331k-move basis (a
    12x12 common-block grid) its five arrays take about 11.9 MB.  ``len``
    counts unsigned moves."""

    kind = "enumerated"

    def __init__(self, R: int, C: int, store: _Store) -> None:
        self.R = R
        self.C = C
        self.store = store

    def __len__(self) -> int:
        return len(self.store.tcode)

    def move(self, k: int) -> Move:
        return _move_at(self.store, k, self.C)

    def __iter__(self):
        return (self.move(k) for k in range(len(self)))

    def counts_by_type(self) -> dict[str, int]:
        counts = np.bincount(np.asarray(self.store.tcode), minlength=len(TYPE_NAMES))
        return {name: int(n) for name, n in zip(TYPE_NAMES, counts) if n}

    @property
    def nbytes(self) -> int:
        """Bytes held by the store's five arrays."""
        return sum(len(a) * a.itemsize for a in self.store)

    def sampler(self, rng):
        """``(draw, store)``: ``draw()`` returns a uniform move index into
        the basis's store.

        A draw equals ``rng.randrange(len(self))`` and leaves ``rng`` in the
        same state: it runs the rejection loop that ``randrange`` runs
        (``k``-bit words until one falls below n), without its three Python
        frames."""
        n = len(self)
        if not n:
            raise _models.ModelError("basis is empty")
        getrandbits, k = rng.getrandbits, n.bit_length()

        def draw() -> int:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return r

        return draw, self.store


def _balanced(terms: np.ndarray, flats: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Mask of the candidate moves, the columns of (k, n) flat cells, whose
    coefficients sum to 0 on every term."""
    return ~(terms[:, flats] * coefs[:, None]).sum(axis=1).any(axis=0)


def _keys(codes: np.ndarray, order) -> np.ndarray:
    """Canonical keys of the moves whose signed-cell codes are the columns of
    ``codes``, a (k, n) array of the key dtype in which the pad fills the
    slots of a move with fewer cells: coincident cells merged, the
    orientation whose lowest cell is positive, codes sorted and padded.  The
    compare-exchanges ``order`` sort every column in place, one pair of rows
    at a time; a move whose sorted cells are all distinct only takes its
    orientation, and ``_merged`` keys the others.  Returns the (n, k) keys,
    a view of ``codes``."""
    for p, q in order:
        low = np.minimum(codes[p], codes[q])
        np.maximum(codes[p], codes[q], out=codes[q])
        codes[p] = low
    pad = np.iinfo(codes.dtype).max
    flats = codes // 5
    coefs = codes - 5 * flats
    coefs -= 2
    # flat * 5 - coef + 2 where the lowest cell is negative; a pad's coef is 0
    np.subtract(codes, 2 * coefs, out=codes, where=coefs[0] < 0)
    repeats = np.flatnonzero(((flats[1:] == flats[:-1]) & (codes[1:] != pad)).any(axis=0))
    if len(repeats):
        codes[:, repeats] = _merged(flats[:, repeats], coefs[:, repeats], pad)
    return codes.T


def _merged(flats: np.ndarray, coefs: np.ndarray, pad: int) -> np.ndarray:
    """Keys, as in ``_keys``, of the (k, m) sorted cells and coefficients of
    moves in which some cell repeats: each run of one cell summed into its
    last slot, the orientation whose lowest live cell is positive, cells
    that cancel (and pads) padded to the end."""
    for p in range(1, len(flats)):
        run = flats[p] == flats[p - 1]
        np.add(coefs[p], coefs[p - 1], out=coefs[p], where=run)
        np.copyto(coefs[p - 1], 0, where=run)
    live = coefs != 0
    sign = np.sign(coefs[np.argmax(live, axis=0), np.arange(live.shape[1])])
    keys = np.where(live, flats * 5 + coefs * sign + 2, pad)
    keys.sort(axis=0)
    return keys


# --- the kernels: index tuples -> flat cells ---------------------------------------

class _Kernel(NamedTuple):
    """Cell q of the move of index tuple ``idx``, a column of an (slots, n)
    array, is (idx[rows[q]], idx[cols[q]]), with coefficient coefs[q]; the
    kernel yields moves of ``types``, and the compare-exchanges ``order``
    sort the cells of every tuple that ``_once`` keeps."""

    rows: list[int]
    cols: list[int]
    coefs: np.ndarray
    types: tuple[str, ...]
    order: tuple[tuple[int, int], ...]

    def cells(self, idx: np.ndarray, C: int) -> np.ndarray:
        """(k, n) flat cells of the moves of (slots, n) index tuples."""
        return idx[self.rows] * C + idx[self.cols]

    def codes(self, idx: np.ndarray, C: int) -> np.ndarray:
        """(k, n) signed-cell codes, flat * 5 + coef + 2, of the moves of
        (slots, n) index tuples, in the dtype of ``idx``."""
        codes = self.cells(idx, C)
        codes *= 5
        codes += (self.coefs + 2).astype(codes.dtype)[:, None]
        return codes

    def axes(self) -> list[int]:
        """Each slot's axis: 0 for a row index, 1 for a column index."""
        return [int(s in self.cols) for s in range(len(set(self.rows + self.cols)))]


# Sorting networks for 4, 6 and 8 values: 5, 12 and 19 compare-exchanges,
# the fewest that sort them (Knuth, The Art of Computer Programming 3, 5.3.4)
_SORT = {
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    6: ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5),
        (1, 2), (3, 4)),
    8: ((0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (1, 5), (2, 6), (3, 7), (0, 1), (2, 3),
        (4, 5), (6, 7), (2, 4), (3, 5), (1, 4), (3, 6), (1, 2), (3, 4), (5, 6)),
}
_LOOP_COEFS = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
_IV_ROWS, _IV_COLS = [0, 1, 2, 3, 0, 1, 2, 3], [4, 5, 6, 7, 6, 7, 5, 4]
_IV_COEFS = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8)
# Type I, slots (i1, i2, j1, j2): +1 at (i1,j1) (i2,j2), -1 at (i1,j2) (i2,j1);
# the cells of a tuple with i1 < i2 and j1 < j2 come in ascending order.
# Types II/III, slots (r1, r2, r3, x1, x2, x3): the degree-3 loop with +1 at
# (r_q, x_q) and -1 at (r_q, x_q+1), cyclically.  Type IV, slots (i1..i4,
# j1..j4): +1 at (i1,j1) (i2,j2) (i3,j3) (i4,j4) and -1 at (i1,j3) (i2,j4)
# (i3,j2) (i4,j1); coincident indices stack into +-2 entries once the move is
# keyed.  IVt takes the same slots in the transposed grid.
_KERNELS = {
    "I": _Kernel([0, 0, 1, 1], [2, 3, 2, 3], np.array([1, -1, -1, 1], dtype=np.int8), ("I",), ()),
    "loop": _Kernel([0, 1, 2, 0, 1, 2], [3, 4, 5, 4, 5, 3], _LOOP_COEFS, ("II", "III"), _SORT[6]),
    "IV": _Kernel(_IV_ROWS, _IV_COLS, _IV_COEFS, ("IV",), _SORT[8]),
    "IVt": _Kernel(_IV_COLS, _IV_ROWS, _IV_COEFS, ("IVt",), _SORT[8]),
}


def _once(kernel: str, idx: np.ndarray) -> np.ndarray:
    """Mask of the (slots, n) index tuples that stand for their move.  A
    Type I move takes i1 < i2 and j1 < j2.  A Type IV move with i1 = i2 and
    i3 = i4 is the same for (j3, j4) and (j4, j3), and takes j3 <= j4.
    Every other tuple of a configuration is a move of its own."""
    if kernel == "I":
        return (idx[0] < idx[1]) & (idx[2] < idx[3])
    if kernel == "loop":
        return np.ones(idx.shape[1], dtype=bool)
    return (idx[0] != idx[1]) | (idx[2] != idx[3]) | (idx[6] <= idx[7])


# --- band configurations ---------------------------------------------------------

def _runs(x: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal consecutive entries of x along axis 0."""
    new = (x[1:] != x[:-1]).reshape(len(x) - 1, -1).any(axis=1)
    return np.diff(np.flatnonzero(np.concatenate([[True], new, [True]])))


def _band_sizes(model, R: int, C: int, terms: np.ndarray):
    """The sizes of the row bands and of the column bands, which are runs of
    rows or columns in index order, and N.  A block model's bands 0..N-1 are
    its blocks' and band N, if any, holds the leftover rows or columns,
    which only a general model can have.  A change-point or independence
    model has no blocks (N = 0); its bands are the runs of rows or columns
    whose cells lie in the same terms."""
    if model.family in (_models.CHANGE_POINT, _models.INDEPENDENCE):
        grid = terms.reshape(-1, R, C)
        return _runs(grid.transpose(1, 0, 2)), _runs(grid.transpose(2, 0, 1)), 0
    rows, cols = np.diff([*model.row_bounds, R + 1]), np.diff([*model.col_bounds, C + 1])
    return rows[rows > 0], cols[cols > 0], _models.n_blocks(model)


def _parts(kernel: str, n_rows: int, n_cols: int, N: int):
    """A kernel's configurations as the product of two tables of band
    tuples, and the entry of a concatenated pair of rows that gives each
    slot its band.  Type I takes row bands a <= b and column bands c <= d.  The rows
    of a Type II/III loop lie in three bands, and so do its columns: two
    rows of one band would put the two cells of a column they share in one
    block.  So a loop takes row bands a < b < c, and three column bands in
    any order, one per loop form.  Type IV takes diagonal blocks k < l (the
    moves of (l, k) negate those of (k, l)) and bands m, n for j3 and j4,
    which must be neither k nor l."""
    if kernel == "I":
        head, tail = (combinations_with_replacement(range(n), 2) for n in (n_rows, n_cols))
        slots = [0, 1, 2, 3]
    elif kernel == "loop":
        head, tail = combinations(range(n_rows), 3), permutations(range(n_cols), 3)
        slots = [0, 1, 2, 3, 4, 5]
    else:
        head = combinations(range(N), 2)
        tail = product(range(n_cols if kernel == "IV" else n_rows), repeat=2)
        slots = [0, 0, 1, 1, 0, 1, 2, 3]
    return np.array(list(head), dtype=np.intp), np.array(list(tail), dtype=np.intp), slots


def _loop_type(rb: np.ndarray, cb: np.ndarray, N: int) -> np.ndarray:
    """Type codes of the loops whose cells (the +1 cells first) lie in row
    bands rb and column bands cb, (n, 6) arrays.  A loop's three row bands
    differ, as do its column bands, so its six cells lie in distinct blocks:
    Type II has none of them in a diagonal block, Type III one +1 and one -1
    cell, and any other loop gets code -1."""
    diag = (rb == cb) & (rb < N)
    n_diag = diag.sum(axis=1)
    tcode = np.full(len(rb), -1, dtype=np.int8)
    tcode[n_diag == 0] = _TYPE_CODE["II"]
    tcode[(n_diag == 2) & ((diag * _LOOP_COEFS).sum(axis=1) == 0)] = _TYPE_CODE["III"]
    return tcode


def _kept(kernel: str, first: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The number of tuples of each configuration that ``_once`` keeps."""
    def ordered(x, y):  # pairs p < q, p in slot x's band and q in slot y's,
        # bands being runs in index order
        nx, ny = size[:, x], size[:, y]
        return np.where(first[:, x] == first[:, y], nx * (nx - 1) // 2,
                        (first[:, x] < first[:, y]) * nx * ny)
    if kernel == "I":
        return ordered(0, 1) * ordered(2, 3)
    raw = size.prod(axis=1)
    if kernel == "loop":
        return raw
    return raw - size[:, [0, 2, 4, 5]].prod(axis=1) * ordered(7, 6)


class _Configs(NamedTuple):
    """Configurations of one kernel that hold moves of the wanted types:
    the first index and size of each slot's band, (n, slots) arrays of the
    grid's index dtype, and each configuration's type code and number of
    moves."""

    kernel: str
    first: np.ndarray
    size: np.ndarray
    tcode: np.ndarray
    kept: np.ndarray


def _configurations(model, R: int, C: int, types, limit: float = np.inf):
    """The configurations of the kernels of ``types`` whose moves balance
    and have those types, kernel by kernel, in the order of ``_parts``'s
    product, ``_CHUNK`` configurations at a time; more than ``limit``
    configurations in all are refused before any is decided.  Every cell of
    a block (row band x column band) lies in the same terms, so the bands
    of a tuple's indices decide whether its move balances (coincident
    indices leave every term sum as it is) and which type it has: one
    representative tuple per configuration, the first index of each band,
    decides for all of its tuples."""
    terms = _models.terms(model, R, C).view(np.int8)  # 0/1, signed for the balance sums
    rows, cols, N = _band_sizes(model, R, C, terms)
    code = _code_type(R * C)
    # one lookup for both axes: column band b is entry len(rows) + b
    sizes = np.concatenate([rows, cols])
    firsts = np.cumsum(sizes) - sizes
    firsts[len(rows):] -= R  # the row bands cover the R rows
    plan = [(name, *_parts(name, len(rows), len(cols), N))
            for name, kernel in _KERNELS.items() if set(kernel.types) & set(types)]
    total = sum(len(head) * len(tail) for _, head, tail, _ in plan)
    if total > limit:
        raise _models.ModelError(f"{total} band configurations ({len(rows)} row and {len(cols)} "
                                 f"column bands) exceed the {limit} a lazy basis holds")
    for name, head, tail, slots in plan:
        kernel = _KERNELS[name]
        wanted = [_TYPE_CODE[t] for t in kernel.types if t in types]
        axis = len(rows) * np.array(kernel.axes())
        for lo in range(0, len(head) * len(tail), _CHUNK):
            at = np.arange(lo, min(lo + _CHUNK, len(head) * len(tail)))
            band = np.concatenate([head[at // len(tail)], tail[at % len(tail)]], axis=1)[:, slots]
            first, size = firsts[band + axis], sizes[band + axis]
            kept = _kept(name, first, size)
            ok = kept > 0
            if name == "loop":
                tcode = _loop_type(band[:, kernel.rows], band[:, kernel.cols], N)
                ok &= np.isin(tcode, wanted)
            else:
                tcode = np.full(len(band), wanted[0], dtype=np.int8)
            if name in ("IV", "IVt"):  # j3 and j4 in neither diagonal block
                ok &= ~(band[:, 6:, None] == band[:, None, [0, 2]]).any(axis=(1, 2))
            ok[ok] = _balanced(terms, kernel.cells(first[ok].T, C), kernel.coefs)
            if ok.any():
                yield _Configs(name, first[ok].astype(code), size[ok].astype(code),
                               tcode[ok].astype(np.uint8), kept[ok])


def _move_types(model, types) -> tuple[str, ...]:
    """The move types of the model's basis, ``types`` if given: Type I for
    change-point and independence models (their only type), I+II for
    own-parameter blocks, I-IV and the Type IV transposes for common and
    general blocks."""
    change_point = model.family in (_models.CHANGE_POINT, _models.INDEPENDENCE)
    if types is None:
        if change_point:
            return ("I",)
        return ("I", "II") if model.family == _models.OWN_BLOCKS else TYPE_NAMES
    unknown = set(types) - set(TYPE_NAMES)
    if unknown:
        raise _models.ModelError(f"unknown move types {sorted(unknown)}")
    if change_point and set(types) - {"I"}:
        raise _models.ModelError(f"a {model.family} model has Type I moves only, "
                                 f"got types {list(types)}")
    return tuple(types)


# --- enumeration: every kept tuple, streamed into the store -------------------------

def _tuples(configs: _Configs, code: str):
    """Every index tuple of the configurations, as (slots, n) arrays of
    typecode ``code``, with each tuple's type code: configuration by
    configuration, each band product in C order (the last slot fastest),
    ``_CHUNK`` tuples at a time.  A pass takes each tuple's configuration by
    ``repeat`` and decodes its place in the band product one ``divmod`` per
    slot."""
    raw = configs.size.prod(axis=1)
    end = np.cumsum(raw)
    start = end - raw
    first, size = np.ascontiguousarray(configs.first.T), np.ascontiguousarray(configs.size.T)
    total = int(end[-1]) if len(end) else 0
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        a, b = np.searchsorted(end, (lo, hi - 1), side="right")
        k = np.repeat(np.arange(a, b + 1),
                      np.minimum(end[a:b + 1], hi) - np.maximum(start[a:b + 1], lo))
        rest = np.arange(lo, hi) - start[k]
        idx = first.take(k, axis=1)
        for s in reversed(range(len(idx))):
            rest, digit = np.divmod(rest, size[s].take(k))
            idx[s] += digit
        yield idx, configs.tcode[k]


def enumerate_basis(model, R: int, C: int, types: tuple[str, ...] | None = None) -> MoveBasis:
    """Every move of the model's types (``_move_types``) on the R x C grid,
    one sign each.  For change-point models these are the basic moves whose
    corner strata balance: with nested rectangles, balanced strata are
    exactly balanced rectangle sums, so the term matrix decides.  Grids
    above ``ENUMERATION_THRESHOLD`` cells are refused."""
    if R * C > ENUMERATION_THRESHOLD:
        raise _models.ModelError(f"the {R}x{C} grid is above the enumeration threshold "
                                 f"of {ENUMERATION_THRESHOLD} cells; draw its moves lazily")
    _models.require_valid(model, R, C)
    code = _code_type(R * C)
    store = _Store(array("i", [0]), array(code), array("b"), array("B"), array("b"))
    for configs in _configurations(model, R, C, _move_types(model, types)):
        kernel = _KERNELS[configs.kernel]
        for idx, codes in _tuples(configs, code):
            keep = _once(configs.kernel, idx)
            _append(store, _keys(kernel.codes(np.compress(keep, idx, axis=1), C), kernel.order),
                    codes[keep])
    _negate(store)
    return MoveBasis(R, C, store)


# --- lazy draws: uniform index tuples of the configurations -----------------------

def _words(rng, n: int, k: int) -> np.ndarray:
    """(n, k) uniform 32-bit words, from one ``getrandbits`` call."""
    bits = rng.getrandbits(32 * n * k).to_bytes(4 * n * k, "little")
    return np.frombuffer(bits, dtype=np.uint32).reshape(n, k).astype(np.uint64)


def _below(u: np.ndarray, n) -> np.ndarray:
    """Integers in [0, n) from 32-bit words, by multiply and shift (the
    bias, under n / 2**32, leaves the draw state-independent, which is all
    the walk needs)."""
    return (u * np.asarray(n, dtype=np.uint64) >> np.uint64(32)).astype(np.intp)


def _draw(kernel: str, first: np.ndarray, size: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index tuples of configurations from (n, slots) 32-bit words: a
    uniform index in each slot's band, except that Type I draws two slots
    in one band as a uniform pair of distinct indices in increasing order,
    so that it draws only tuples ``_once`` keeps."""
    off = _below(u, size)
    for x, y in ((0, 1), (2, 3)) if kernel == "I" else ():
        same = first[:, x] == first[:, y]
        p, q = off[:, x], _below(u[:, y], size[:, y] - same)
        q += same & (q >= p)
        off[:, x], off[:, y] = (np.where(same, np.minimum(p, q), p),
                                np.where(same, np.maximum(p, q), q))
    return first + off


def _joined(kernel: str, chunks) -> _Configs:
    """One kernel's configuration chunks as one table, joined field by field:
    each field's chunks are dropped as soon as they are joined, so the
    build holds the table about once, not the chunks and the table."""
    fields = [list(f) for f in zip(*(c[1:] for c in chunks))]
    joined = []
    while fields:
        joined.append(np.concatenate(fields.pop(0)))
    return _Configs(kernel, *joined)


class LazyMoveBasis:
    """The same moves (``_move_types``), drawn instead of enumerated, for
    grids too large to enumerate.  A draw takes a uniform type among those
    with moves, one of its configurations in proportion to the tuples
    ``_draw`` gives it (its raw tuples; Type I, which draws a same-band pair
    in order, its kept tuples) and one of those tuples uniformly.  ``_once``
    drops the Type IV tuples that repeat a move, so the kept draws of a
    type are uniform over its moves.  Types are not weighted by their move
    counts, which would starve Type I on large grids.  The law is
    state-independent, and a sampler walks through the kept draws one batch
    at a time, in draw order.  The configurations are held in a table, so
    a model of more than ``_LAZY_CONFIGS`` (a block model of 15 or more
    bands per axis) is refused."""

    kind = "lazy"

    def __init__(self, model, R: int, C: int, types: tuple[str, ...] | None = None) -> None:
        _models.require_valid(model, R, C)
        types = _move_types(model, types)
        self.R = R
        self.C = C
        self._samplers = weakref.WeakKeyDictionary()  # random_move's, by rng
        self._code = _code_type(R * C)
        self._configs = [_joined(name, chunks)  # one table per kernel
                         for name, chunks in groupby(
                             _configurations(model, R, C, types, _LAZY_CONFIGS),
                             key=lambda c: c.kernel)]
        if not self._configs:
            raise _models.ModelError("lazy basis has empty pattern space")
        self._tcode = np.concatenate([c.tcode for c in self._configs])
        # a configuration's share: its type's, 1 / types, times its share of
        # the type's draws; formed in place in one float array, a kernel or
        # a pass at a time, so the build makes no second copy of it
        share = np.empty(len(self._tcode))
        lo = 0
        for c in self._configs:
            drawn = share[lo:lo + len(c.tcode)]
            if c.kernel == "I":
                drawn[:] = c.kept
            else:
                np.multiply.reduce(c.size, axis=1, dtype=float, out=drawn)
            lo += len(c.tcode)
        passes = range(0, len(share), _CHUNK)
        # sums of integers below 2**53, so exact in any order
        per_type = sum(np.bincount(self._tcode[lo:lo + _CHUNK], share[lo:lo + _CHUNK],
                                   len(TYPE_NAMES)) for lo in passes)
        for lo in passes:
            part = share[lo:lo + _CHUNK]
            part /= per_type[self._tcode[lo:lo + _CHUNK]]
            part /= np.count_nonzero(per_type)
        self._cum = np.cumsum(share, out=share)
        self._cum[-1] = 1.0

    def counts_by_type(self) -> dict[str, int]:
        """Moves per type: the kept tuples of its configurations."""
        kept = np.concatenate([c.kept for c in self._configs])
        return {TYPE_NAMES[t]: int(kept[self._tcode == t].sum()) for t in np.unique(self._tcode)}

    def _batch(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """Keys and type codes of one batch's kept draws, in draw order.
        Draws are padded to eight cells with the pad code, so the keys take
        one numpy pass for the whole batch."""
        # one word picks the configuration, the others the indices of up to eight slots
        u = _words(rng, _LAZY_BATCH, 1 + _KEY_WIDTH)
        at = np.searchsorted(self._cum, u[:, 0] * 2.0 ** -32, side="right")
        codes = np.full((_KEY_WIDTH, _LAZY_BATCH), np.iinfo(self._code).max, dtype=self._code)
        ok = np.zeros(_LAZY_BATCH, dtype=bool)
        lo = 0
        for configs in self._configs:
            mine = np.flatnonzero((at >= lo) & (at < lo + len(configs.tcode)))
            k = at[mine] - lo
            lo += len(configs.tcode)
            kernel = _KERNELS[configs.kernel]
            first, size = configs.first[k], configs.size[k]
            idx = _draw(configs.kernel, first, size, u[mine, 1:1 + size.shape[1]]).T
            codes[:len(kernel.coefs), mine] = kernel.codes(idx, self.C)
            ok[mine] = _once(configs.kernel, idx)
        return _keys(codes[:, ok], _SORT[_KEY_WIDTH]), self._tcode[at[ok]]

    def sampler(self, rng):
        """``(draw, store)`` like ``MoveBasis.sampler``; the store holds one
        batch of drawn moves, and ``draw()`` empties and refills it in place
        when the batch is spent, so the returned arrays stay current."""
        store = _Store(array("i", [0]), array(self._code), array("b"), array("B"), array("b"))
        off, flat, coef, tcode, _ = store
        pos = n = 0

        def draw() -> int:
            nonlocal pos, n
            if pos == n:
                keys, codes = self._batch(rng)
                while not len(codes):
                    keys, codes = self._batch(rng)
                del off[1:], flat[:], coef[:], tcode[:]
                _append(store, keys, codes)
                _negate(store)
                pos, n = 0, len(codes)
            pos += 1
            return pos - 1

        return draw, store


def basis_for_model(model, R: int, C: int, types: tuple[str, ...] | None = None):
    """``enumerate_basis`` up to ``ENUMERATION_THRESHOLD`` cells, a
    ``LazyMoveBasis`` beyond it."""
    if R * C > ENUMERATION_THRESHOLD:
        return LazyMoveBasis(model, R, C, types)
    return enumerate_basis(model, R, C, types)


def random_move(basis, rng) -> Move:
    """One move of ``basis.sampler(rng)`` with a uniform sign, as the walk
    draws it.

    Every basis element has positive draw probability in both signs and the
    distribution is state-independent, which is what the Metropolis kernel
    requires.  An enumerated draw keeps no state; a lazy basis keeps one
    sampler per live ``rng``, holding a weak proxy of it, so each ``rng``
    uses up its own batch before drawing the next.
    """
    if not isinstance(basis, LazyMoveBasis):
        draw, store = basis.sampler(rng)
    else:
        held = basis._samplers.get(rng)
        if held is None:
            held = basis._samplers[rng] = basis.sampler(weakref.proxy(rng))
        draw, store = held
    move = _move_at(store, draw(), basis.C)
    return move.negated() if rng.random() < 0.5 else move


def is_kernel_move(cfg: Configuration, move: Move) -> bool:
    """Exact integer check that A z = 0."""
    acc = np.zeros(cfg.T, dtype=np.int64)
    for i, j, c in move.entries:
        if not (1 <= i <= cfg.R and 1 <= j <= cfg.C):
            raise TableError(f"move cell ({i},{j}) outside {cfg.R}x{cfg.C} grid")
        acc += c * cfg.matrix[:, flat_index(i, j, cfg.C)].astype(np.int64)
    return not acc.any()


def dump_moves(basis: MoveBasis, fp) -> None:
    for move in basis:
        fp.write(format_move(move) + "\n")

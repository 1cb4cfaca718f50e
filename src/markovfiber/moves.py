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

Each type has one numpy kernel, which maps arrays of index tuples (rows and
columns, or the rows and columns of two diagonal blocks) to ``(n, k)``
arrays of flat cells, the type's coefficients and a type code; the term
balance, one terms x cells matrix product, is checked after the kernel.
Every move is canonicalized to a key (the sorted signed-cell codes, in the
orientation whose lowest cell has a positive coefficient) and stored in
that one sign, in flat arrays of int32 offsets, int16 cells and int8
coefficients, with one type code byte per move.

One rule, ``_move_types``, gives every family its types; a ``types``
argument restricts them (the verification sweeps use this to exhibit
disconnection witnesses), and a change-point model takes Type I alone.
``enumerate_basis`` skips the types whose bands rule out every move and
gives the other kernels every index product, a few thousand tuples per
pass, appending each pass's balanced moves to the store in the order I,
II/III, IV, IVt.  Only coincident Type IV indices can repeat a move, and
their repeats are never generated, so nothing is deduplicated and the
build holds the store and one pass.  ``basis_for_model`` enumerates grids
up to 400 cells (``ENUMERATION_THRESHOLD``); larger grids get a lazy basis,
which feeds the kernels small batches of uniformly drawn index tuples and
keeps the valid candidates in draw order.  Both bases give the walk the same sampler, and
the walk draws the sign uniformly, which keeps the proposal symmetric
(Diaconis & Sturmfels 1998).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import combinations, permutations
from math import prod

import numpy as np

from . import models as _models
from .tables import Configuration, build_configuration, flat_index

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
# move (coefficients are +-1 or +-2), sorted and padded to the widest move,
# Type IV with eight cells, with the largest value of the key dtype.  Codes
# and flat cell ids are int16 up to 6,553 cells, so on every enumerated grid
# (``ENUMERATION_THRESHOLD``), and int32 beyond.
_KEY_WIDTH = 8
# Candidates generated per numpy pass; the build's working memory is a few
# times this many candidates, whatever the size of the basis.
_CHUNK = 1 << 13
# Candidates drawn per lazy batch: enough to spread the fixed cost of the
# numpy calls over about 45 valid moves on a 24x24 four-block grid, few
# enough that a batch's arrays (tens of kB) leave the resident high-water
# mark where it is.
_LAZY_BATCH = 1024


@dataclass(frozen=True)
class Move:
    """Sparse move: ((i, j, coef), ...) sorted by cell, plus a type tag."""

    entries: tuple[tuple[int, int, int], ...]
    mtype: str

    @property
    def degree(self) -> int:
        return sum(c for _, _, c in self.entries if c > 0)

    def flats_coefs(self, C: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        flats = tuple(flat_index(i, j, C) for i, j, _ in self.entries)
        coefs = tuple(c for _, _, c in self.entries)
        return flats, coefs

    def negated(self) -> "Move":
        return Move(tuple((i, j, -c) for i, j, c in self.entries), self.mtype)

    def as_array(self, R: int, C: int) -> np.ndarray:
        out = np.zeros((R, C), dtype=np.int64)
        for i, j, c in self.entries:
            out[i - 1, j - 1] = c
        return out


def format_move(move: Move) -> str:
    cells = " ".join(f"{i},{j}:{c:+d}" for i, j, c in move.entries)
    return f"{move.degree} {move.mtype}  {cells}"


def _code_type(cells: int) -> str:
    """Typecode of the signed-cell codes and flat cell ids on a grid of this
    many cells: int16 while every code and the pad fit, int32 beyond."""
    return "h" if 5 * cells < np.iinfo(np.int16).max else "i"


def _append(store, keys: np.ndarray) -> None:
    """Append the moves with these keys to a store's (offsets, flat cell ids,
    coefficients), whose flat cell ids have the keys' dtype; each key
    decodes to its cells in ascending order."""
    off, flat, coef = store
    live = keys != np.iinfo(keys.dtype).max
    codes = keys[live]
    off.frombytes((np.cumsum(live.sum(axis=1), dtype=np.int32) + off[-1]).tobytes())
    flat.frombytes((codes // 5).tobytes())
    coef.frombytes((codes % 5 - 2).astype(np.int8).tobytes())


def _move_at(store, k: int, C: int) -> Move:
    """Move k of a store (offsets, flat cell ids, coefficients, type codes)."""
    off, flat, coef, tcode = store
    entries = tuple(
        (flat[p] // C + 1, flat[p] % C + 1, coef[p])
        for p in range(off[k], off[k + 1])
    )
    return Move(entries, TYPE_NAMES[tcode[k]])


class MoveBasis:
    """Enumerated move set, one sign per move, in compact flat-array storage.

    ``_flat``/``_coef`` hold the concatenated sparse entries of all moves
    (int16 cell ids, int8 coefficients), ``_off`` the per-move int32
    offsets and ``_tcode`` one type code byte per move; this keeps a
    331k-move basis (a 12x12 common-block grid) at about 9 MB.  ``len``
    counts unsigned moves.
    """

    kind = "enumerated"

    def __init__(self, R: int, C: int, off: array, flat: array, coef: array,
                 tcode: bytes) -> None:
        self.R = R
        self.C = C
        self._off, self._flat, self._coef, self._tcode = off, flat, coef, tcode

    def __len__(self) -> int:
        return len(self._tcode)

    def move(self, k: int) -> Move:
        return _move_at((self._off, self._flat, self._coef, self._tcode), k, self.C)

    def __iter__(self):
        return (self.move(k) for k in range(len(self)))

    def counts_by_type(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self._tcode, dtype=np.uint8),
                             minlength=len(TYPE_NAMES))
        return {name: int(n) for name, n in zip(TYPE_NAMES, counts) if n}

    @property
    def nbytes(self) -> int:
        """Bytes held by the store's four arrays."""
        arrays = self._off, self._flat, self._coef
        return sum(len(a) * a.itemsize for a in arrays) + len(self._tcode)

    def move_arrays(self) -> tuple[array, array, array]:
        """(offsets, flat cell ids, coefficients) of every stored move."""
        return self._off, self._flat, self._coef

    def sampler(self, rng):
        """``(draw, store)``: ``draw()`` returns a uniform move index into the
        store (offsets, flat cell ids, coefficients, type codes)."""
        if not len(self):
            raise ValueError("basis is empty")
        return partial(rng.randrange, len(self)), (self._off, self._flat, self._coef, self._tcode)


def _bands(model, R: int, C: int) -> tuple[np.ndarray, np.ndarray, int]:
    """0-based arrays of the 1-based row and column band ids, and N;
    leftover rows/cols (general model) get band N+1 so the complement is
    still carved into blocks."""
    rband = np.array([_models.row_band(model, i) for i in range(1, R + 1)], dtype=np.int32)
    cband = np.array([_models.col_band(model, j) for j in range(1, C + 1)], dtype=np.int32)
    return rband, cband, _models.n_blocks(model)


def _term_matrix(model, R: int, C: int) -> np.ndarray:
    """Terms x cells 0/1 matrix, the subtable rows of the configuration:
    row q marks the flat cells of term q."""
    return build_configuration(model, R, C).matrix[R + C:].astype(np.int8)


def _balanced(terms: np.ndarray, flats: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Mask of the candidate moves whose coefficients sum to 0 on every term."""
    return ~(terms[:, flats] * coefs).sum(axis=2).any(axis=0)


def _keys(flats: np.ndarray, coefs: np.ndarray, code: str) -> np.ndarray:
    """Canonical keys of (n, k) candidate moves, of typecode ``code``:
    coincident cells merged, the orientation whose lowest cell is positive,
    signed-cell codes sorted and padded to ``_KEY_WIDTH``.  Every temporary
    has the key dtype, so a pass costs a few bytes per cell."""
    n, k = flats.shape
    pad = np.iinfo(code).max
    keys = np.full((n, _KEY_WIDTH), pad, dtype=code)
    cells = keys[:, :k]
    np.multiply(flats, 5, out=cells, casting="unsafe")
    cells += coefs + 2
    cells.sort(axis=1)  # by cell, then coefficient
    flats, coefs = np.divmod(cells, 5)
    coefs -= 2
    for p in range(1, k):  # sum each run of one cell into its last slot
        run = flats[:, p] == flats[:, p - 1]
        coefs[run, p] += coefs[run, p - 1]
        coefs[run, p - 1] = 0
    live = coefs != 0
    sign = np.sign(coefs[np.arange(n), np.argmax(live, axis=1)])
    cells[...] = np.where(live, flats * 5 + coefs * sign[:, None] + 2, pad)
    keys.sort(axis=1)
    return keys


# --- the kernels: index arrays -> (flat cells, coefficients, type code) ---------

_I_COEFS = np.array([1, -1, -1, 1], dtype=np.int8)
_LOOP_COEFS = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
_IV_COEFS = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8)
_UNIQUE_SLOT = -1 - np.arange(6, dtype=np.int32)


def _type_i_cells(i1, i2, j1, j2, C: int):
    """Type I: the basic move (i1,j1) + (i2,j2) - (i1,j2) - (i2,j1)."""
    i1, i2 = i1 * C, i2 * C
    flats = np.stack([i1 + j1, i1 + j2, i2 + j1, i2 + j2], axis=-1)
    return flats, _I_COEFS, _TYPE_CODE["I"]


def _all_distinct(codes: np.ndarray) -> np.ndarray:
    s = np.sort(codes, axis=-1)
    return (s[..., 1:] != s[..., :-1]).all(axis=-1)


def _loop_cells(bands, rows: np.ndarray, cols: np.ndarray, C: int):
    """Types II and III: the degree-3 loop with +1 at (rows[q], cols[q]) and
    -1 at (rows[q + 3], cols[q + 3]), q < 3, typed by block geometry.  Type
    II has its six cells in distinct off-diagonal blocks; Type III has one
    +1 and one -1 cell in distinct diagonal blocks and its other four cells
    in distinct off-diagonal blocks.  Other loops get code -1."""
    rband, cband, N = bands
    rb, cb = rband[rows], cband[cols]
    blocks = rb * (N + 2) + cb
    in_s = (rb == cb) & (rb <= N)
    n_s = in_s.sum(axis=-1)
    tcode = np.full(n_s.shape, -1, dtype=np.int8)
    tcode[(n_s == 0) & _all_distinct(blocks)] = _TYPE_CODE["II"]
    iii = ((n_s == 2) & ((_LOOP_COEFS * in_s).sum(axis=-1) == 0)
           & _all_distinct(np.where(in_s, blocks, _UNIQUE_SLOT))
           & _all_distinct(np.where(in_s, _UNIQUE_SLOT, blocks)))
    tcode[iii] = _TYPE_CODE["III"]
    return rows * C + cols, _LOOP_COEFS, tcode


def _type_iv_cells(i1, i2, i3, i4, j1, j2, j3, j4, C: int, transposed: bool):
    """Type IV between diagonal blocks k and l: +1 at (i1,j1) (i2,j2)
    (i3,j3) (i4,j4) and -1 at (i1,j3) (i2,j4) (i3,j2) (i4,j1), with i1, i2
    in row band k, i3, i4 in row band l, j1 in column band k, j2 in column
    band l and j3, j4 in neither; coincident indices stack into +-2 entries
    once the move is keyed.  The transpose takes the indices in the
    transposed grid and swaps rows and columns."""
    rows = np.stack(np.broadcast_arrays(i1, i2, i3, i4, i1, i2, i3, i4), axis=-1)
    cols = np.stack(np.broadcast_arrays(j1, j2, j3, j4, j3, j4, j2, j1), axis=-1)
    if transposed:
        rows, cols = cols, rows
    return rows * C + cols, _IV_COEFS, _TYPE_CODE["IVt" if transposed else "IV"]


# --- enumeration: every index product, streamed into the store ---------------

class _Store:
    """A basis store filled in generation order: each pass's balanced
    candidates are keyed and appended, so the build holds the store and one
    pass's arrays, never every candidate."""

    def __init__(self, terms: np.ndarray, cells: int) -> None:
        self.terms = terms
        self.code = _code_type(cells)
        self.arrays = array("i", [0]), array(self.code), array("b")
        self.tcode = bytearray()

    def add(self, flats: np.ndarray, coefs: np.ndarray, tcodes) -> None:
        ok = _balanced(self.terms, flats, coefs)
        if ok.any():
            _append(self.arrays, _keys(flats[ok], coefs, self.code))
            self.tcode += np.broadcast_to(tcodes, ok.shape)[ok].astype(np.uint8).tobytes()

    def basis(self, R: int, C: int) -> MoveBasis:
        return MoveBasis(R, C, *self.arrays, bytes(self.tcode))


def _product(*axes: np.ndarray):
    """The Cartesian product of the index arrays in C order (the last axis
    fastest), ``_CHUNK`` tuples at a time, as one array per axis."""
    dims = tuple(len(a) for a in axes)
    n = prod(dims)
    for lo in range(0, n, _CHUNK):
        at = np.arange(lo, min(lo + _CHUNK, n))
        yield [a[i] for a, i in zip(axes, np.unravel_index(at, dims))]


def _pairs(n: int, k: int, code: str) -> np.ndarray:
    """(m, k) array of the k-subsets of range(n), in lexicographic order."""
    return np.array(list(combinations(range(n), k)), dtype=code).reshape(-1, k)


def _type_i(out: _Store, R: int, C: int) -> None:
    """Every basic move with i1 < i2, j1 < j2."""
    for rows, cols in _product(_pairs(R, 2, out.code), _pairs(C, 2, out.code)):
        out.add(*_type_i_cells(rows[:, 0], rows[:, 1], cols[:, 0], cols[:, 1], C))


def _type_ii_iii(out: _Store, bands, R: int, C: int, wanted: list[int]) -> None:
    """Every degree-3 loop of the wanted codes.  A loop on rows r and
    columns c has +1 at (r[k], c[p[k]]) and -1 at (r[k], c[p[k+1 mod 3]])
    for a permutation p; the shift by one alone gives every loop once up to
    sign."""
    perms = np.array(list(permutations(range(3))))
    col3 = _pairs(C, 3, out.code)
    # (column triple, permutation) -> the columns of the +1, then the -1 cells
    col6 = np.concatenate([col3[:, perms], col3[:, perms[:, [1, 2, 0]]]], axis=2).reshape(-1, 6)
    row3 = _pairs(R, 3, out.code)
    for rows, cols in _product(np.concatenate([row3, row3], axis=1), col6):
        flats, coefs, tcode = _loop_cells(bands, rows, cols, C)
        keep = np.isin(tcode, wanted)
        out.add(flats[keep], coefs, tcode[keep])


def _type_iv(out: _Store, bands, C: int, transposed: bool) -> None:
    """Every Type IV move.  The pattern of blocks (l, k) is the negation of
    that of (k, l), so only k < l is generated, one block pair at a time.
    The index tuples of a pair give each move once, except that with i1 =
    i2 and i3 = i4 swapping j3 and j4 gives the same move; only the first
    of the two in generation order, j3 < j4, is kept."""
    rband, cband, N = bands
    if transposed:
        rband, cband = cband, rband
    for k in range(1, N + 1):
        for l in range(k + 1, N + 1):
            rk, rl, ck, cl, other = (np.flatnonzero(b).astype(out.code) for b in (
                rband == k, rband == l, cband == k, cband == l, (cband != k) & (cband != l)))
            for idx in _product(rk, rk, rl, rl, ck, cl, other, other):
                i1, i2, i3, i4, _, _, j3, j4 = idx
                once = (i1 != i2) | (i3 != i4) | (j3 <= j4)
                out.add(*_type_iv_cells(*(a[once] for a in idx), C, transposed))


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


# --- which types can balance -----------------------------------------------------

def _paired_diagonal(terms: np.ndarray, bands, C: int) -> bool:
    """Do two diagonal blocks lie in the same terms?  Every cell of a block
    lies in the same terms, so the first cell of each stands for it.  (A set
    of tuples, not ``np.unique(axis=0)``, which imports ``numpy.ma``.)"""
    rband, cband, N = bands
    first = [np.argmax(rband == n) * C + np.argmax(cband == n) for n in range(1, N + 1)]
    return len(set(map(tuple, terms[:, first].T.tolist()))) < N


def _pattern_space(t: str, R: int, C: int, bands, paired: bool) -> float:
    """A type's raw pattern-space size, or 0 where no move of the type can
    balance.  The six cells of a Type II/III loop lie in distinct blocks,
    and any two of its rows share a column (any two columns a row), so it
    needs three row bands and three column bands, a leftover band included;
    Type IV needs two diagonal blocks and a third column band for j3, j4
    (IVt a third row band).  Types III, IV and IVt have one +1 and one -1
    cell in two different diagonal blocks and their other cells off the
    diagonal, so they balance only where two diagonal blocks are
    ``paired``: in the same terms."""
    if t == "I":
        return R * (R - 1) / 2 * C * (C - 1) / 2
    if t != "II" and not paired:
        return 0
    rband, cband, N = bands
    n_rows, n_cols = rband.max(), cband.max()  # bands 1..N are never empty
    if t in ("II", "III"):
        if min(n_rows, n_cols) < 3:
            return 0
        return R * (R - 1) * (R - 2) * C * (C - 1) * (C - 2) / 3
    if N < 2 or (n_rows if t == "IVt" else n_cols) < 3:
        return 0
    return R * R * C * C  # rough; only relative draw rates are affected


def _type_weights(model, R: int, C: int, terms: np.ndarray, types) -> tuple:
    """The model's bands (``None`` for Type I alone) and each type's
    pattern-space size, 0 for a type none of whose moves can balance."""
    bands = paired = None
    if set(types) - {"I"}:
        bands = _bands(model, R, C)
        paired = _paired_diagonal(terms, bands, C)
    return bands, {t: _pattern_space(t, R, C, bands, paired) for t in types}


def enumerate_basis(model, R: int, C: int, types: tuple[str, ...] | None = None) -> MoveBasis:
    """Every move of the model's types (``_move_types``) on the R x C grid,
    one sign each.  For change-point models these are the basic moves whose
    corner strata balance: with nested rectangles, balanced strata are
    exactly balanced rectangle sums, so the term matrix decides."""
    _models.require_valid(model, R, C)
    terms = _term_matrix(model, R, C)
    bands, weights = _type_weights(model, R, C, terms, _move_types(model, types))
    # a type with an empty pattern space has no balanced move: its kernel is skipped
    types = [t for t, w in weights.items() if w > 0]
    out = _Store(terms, R * C)
    if "I" in types:
        _type_i(out, R, C)
    if "II" in types or "III" in types:
        _type_ii_iii(out, bands, R, C, [_TYPE_CODE[t] for t in ("II", "III") if t in types])
    if "IV" in types:
        _type_iv(out, bands, C, transposed=False)
    if "IVt" in types:
        _type_iv(out, bands, C, transposed=True)
    return out.basis(R, C)


# --- lazy draws: uniform index tuples --------------------------------------------

def _words(rng, n: int, k: int) -> np.ndarray:
    """(n, k) uniform 32-bit words, from one ``getrandbits`` call."""
    bits = rng.getrandbits(32 * n * k).to_bytes(4 * n * k, "little")
    return np.frombuffer(bits, dtype=np.uint32).reshape(n, k).astype(np.uint64)


def _below(u: np.ndarray, n) -> np.ndarray:
    """Integers in [0, n) from 32-bit words, by multiply and shift (the
    bias, under n / 2**32, leaves the draw state-independent, which is all
    the walk needs)."""
    return (u * np.asarray(n, dtype=np.uint64) >> np.uint64(32)).astype(np.intp)


def _distinct(u: np.ndarray, n: int) -> np.ndarray:
    """(m, k) uniform ordered draws without replacement from range(n), k <= 3,
    from (m, k) words: each draw skips the earlier ones in ascending order."""
    a = _below(u[:, 0], n)
    b = _below(u[:, 1], n - 1)
    b += b >= a
    if u.shape[1] == 2:
        return np.stack([a, b], axis=1)
    c = _below(u[:, 2], n - 2)
    c += c >= np.minimum(a, b)
    c += c >= np.maximum(a, b)
    return np.stack([a, b, c], axis=1)


def _band_index(band: np.ndarray, n_bands: int):
    """Indices sorted by band, and each band's start and count in that order."""
    count = np.bincount(band, minlength=n_bands + 1)
    return np.argsort(band, kind="stable"), np.cumsum(count) - count, count


def _pick(index, band: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A uniform index of each given band (every band 1..N is nonempty)."""
    order, start, count = index
    return order[start[band] + _below(u, count[band])]


def _pick_other(index, k: np.ndarray, l: np.ndarray, u: np.ndarray):
    """A uniform index outside bands k and l, and whether there is one: the
    u-th of the others skips the two bands' runs in the sorted order."""
    order, start, count = index
    n_other = len(order) - count[k] - count[l]
    lo, hi = np.minimum(k, l), np.maximum(k, l)
    p = _below(u, n_other)
    p += count[lo] * (p >= start[lo])
    p += count[hi] * (p >= start[hi])
    return order[np.minimum(p, len(order) - 1)], n_other > 0


# the type code whose kernel draws each type: II and III share the loops
_KERNEL_OF = np.array([0, 1, 1, 3, 4])


class LazyMoveBasis:
    """The same move types (``_move_types``), drawn instead of enumerated,
    for grids too large to enumerate.  A candidate draws a type with weight
    proportional to its raw pattern-space size (0 for a type none of whose
    moves can balance), then uniform distinct rows and columns and a shift
    of 1 or 2 (Types I-III), or a uniform ordered pair of diagonal blocks
    and uniform rows and columns of the bands the pattern needs (Type IV).
    The kernels keep the candidates of the drawn type whose terms balance,
    so the selection is state-independent, and a sampler walks through them
    one batch at a time."""

    kind = "lazy"

    def __init__(self, model, R: int, C: int, types: tuple[str, ...] | None = None) -> None:
        _models.require_valid(model, R, C)
        types = _move_types(model, types)
        self.R = R
        self.C = C
        self._terms = _term_matrix(model, R, C)
        self._code = _code_type(R * C)
        self._bands, weights = _type_weights(model, R, C, self._terms, types)
        if self._bands is not None:
            rband, cband, N = self._bands
            self._index = (_band_index(rband, N + 1), _band_index(cband, N + 1))
        weights = np.array(list(weights.values()))
        if weights.sum() <= 0:
            raise ValueError("lazy basis has empty pattern space")
        # types with an empty pattern space are never drawn
        self._drawn = np.array([_TYPE_CODE[t] for t, w in zip(types, weights) if w > 0])
        self._kernels = sorted(set(_KERNEL_OF[self._drawn].tolist()))
        self._cum = np.cumsum(weights[weights > 0]) / weights.sum()
        self._cum[-1] = 1.0

    def _candidates(self, code: int, rng, m: int):
        """Kernel output for m candidates of one type's kernel."""
        R, C = self.R, self.C
        if code == _TYPE_CODE["I"]:
            u = _words(rng, m, 4)
            rows, cols = _distinct(u[:, 0:2], R), _distinct(u[:, 2:4], C)
            return _type_i_cells(rows[:, 0], rows[:, 1], cols[:, 0], cols[:, 1], C)
        if code == _TYPE_CODE["II"]:
            u = _words(rng, m, 7)
            rows, cols = _distinct(u[:, 0:3], R), _distinct(u[:, 3:6], C)
            minus = np.where(u[:, 6:] >> np.uint64(31), cols[:, [2, 0, 1]], cols[:, [1, 2, 0]])
            return _loop_cells(self._bands, np.concatenate([rows, rows], axis=1),
                               np.concatenate([cols, minus], axis=1), C)
        u = _words(rng, m, 10)
        transposed = code == _TYPE_CODE["IVt"]
        rows, cols = self._index[::-1] if transposed else self._index
        k, l = (_distinct(u[:, 0:2], self._bands[2]) + 1).T
        j3, ok = _pick_other(cols, k, l, u[:, 2])
        j4, _ = _pick_other(cols, k, l, u[:, 3])
        flats, coefs, tcode = _type_iv_cells(
            _pick(rows, k, u[:, 4]), _pick(rows, k, u[:, 5]),
            _pick(rows, l, u[:, 6]), _pick(rows, l, u[:, 7]),
            _pick(cols, k, u[:, 8]), _pick(cols, l, u[:, 9]), j3, j4, C, transposed)
        return flats, coefs, np.where(ok, tcode, -1)

    def _batch(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """Keys and type codes of one batch's valid candidates, in draw order.
        Candidates are padded to eight cells with zero coefficients, so the
        term balance and the keys take one numpy pass for the whole batch."""
        u = _words(rng, _LAZY_BATCH, 1)[:, 0]
        drawn = self._drawn[np.searchsorted(self._cum, u * 2.0 ** -32)]
        flats = np.zeros((_LAZY_BATCH, _KEY_WIDTH), dtype=np.intp)
        coefs = np.zeros((_LAZY_BATCH, _KEY_WIDTH), dtype=np.int8)
        ok = np.zeros(_LAZY_BATCH, dtype=bool)
        kernel = _KERNEL_OF[drawn]
        for code in self._kernels:
            mine = np.flatnonzero(kernel == code)
            if not len(mine):
                continue
            f, c, got = self._candidates(code, rng, len(mine))
            flats[mine, :f.shape[1]] = f
            coefs[mine, :f.shape[1]] = c
            ok[mine] = got == drawn[mine]
        ok &= _balanced(self._terms, flats, coefs)
        return _keys(flats[ok], coefs[ok], self._code), drawn[ok].astype(np.uint8)

    def sampler(self, rng):
        """``(draw, store)`` like ``MoveBasis.sampler``; the store holds one
        batch of drawn moves, and ``draw()`` refills it in place when the
        batch is spent, so the returned arrays stay current."""
        store = off, flat, coef, tcode = (array("i", [0]), array(self._code), array("b"),
                                          bytearray())
        pos = n = 0

        def draw() -> int:
            nonlocal pos, n
            if pos == n:
                keys, codes = self._batch(rng)
                while not len(codes):
                    keys, codes = self._batch(rng)
                del off[1:], flat[:], coef[:]
                _append(store[:3], keys)
                tcode[:] = codes.tobytes()
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
    requires.  The sampler is kept on the basis while the same ``rng`` is
    passed, so repeated calls use up a lazy batch before drawing the next.
    """
    held = getattr(basis, "_held_sampler", None)
    if held is None or held[0] is not rng:
        held = basis._held_sampler = (rng, *basis.sampler(rng))
    _, draw, store = held
    move = _move_at(store, draw(), basis.C)
    return move.negated() if rng.random() < 0.5 else move


def is_kernel_move(cfg: Configuration, move: Move) -> bool:
    """Exact integer check that A z = 0."""
    acc = np.zeros(cfg.T, dtype=np.int64)
    for i, j, c in move.entries:
        if not (1 <= i <= cfg.R and 1 <= j <= cfg.C):
            raise ValueError(f"move cell ({i},{j}) outside {cfg.R}x{cfg.C} grid")
        acc += c * cfg.matrix[:, flat_index(i, j, cfg.C)].astype(np.int64)
    return not acc.any()


def dump_moves(basis: MoveBasis, fp) -> None:
    for move in basis:
        fp.write(format_move(move) + "\n")

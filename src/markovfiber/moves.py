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
that one sign, in flat arrays of offsets, cells and coefficients.

Grids up to ``enumerate_threshold`` cells (default 400) are enumerated: the
kernels get every index product, and duplicates are dropped on the key,
keeping the first occurrence in the order I, II/III, IV, IVt.  Larger grids
get a lazy basis, which feeds the kernels small batches of uniformly drawn
index tuples and keeps the valid candidates in draw order.  Both bases give
the walk the same sampler, and the walk draws the sign uniformly, which
keeps the proposal symmetric (Diaconis & Sturmfels 1998).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import combinations, permutations

import numpy as np

from . import models as _models
from .tables import Configuration, build_configuration, flat_index

__all__ = [
    "Move",
    "MoveBasis",
    "LazyMoveBasis",
    "basis_change_point",
    "basis_block",
    "basis_for_model",
    "random_move",
    "is_kernel_move",
    "format_move",
    "dump_moves",
]

TYPE_NAMES = ("I", "II", "III", "IV", "IVt")
_TYPE_CODE = {name: k for k, name in enumerate(TYPE_NAMES)}

# A canonical key holds the signed-cell codes flat * 5 + coef + 2 of one
# move (coefficients are +-1 or +-2), sorted and padded to the widest move,
# Type IV with eight cells.
_KEY_WIDTH = 8
_PAD = np.iinfo(np.int32).max
# Candidates handled per numpy pass, which bounds the build's working memory.
_CHUNK = 1 << 16
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


def _zeros(typecode: str, n: int) -> tuple[array, np.ndarray]:
    """An array.array of n zeros and a writable numpy view of its buffer."""
    out = array(typecode, [0]) * n
    return out, np.frombuffer(out, dtype=typecode)


def _decode(keys: np.ndarray) -> tuple[array, array, array]:
    """(offsets, flat cell ids, coefficients) of the moves with these keys.
    The results are written straight into the arrays' buffers, ``_CHUNK``
    keys at a time: a 12x12 common-block basis has 2.5M entries, so every
    full-size temporary costs 10 MB."""
    off, off_view = _zeros("i", len(keys) + 1)
    np.cumsum((keys != _PAD).sum(axis=1), out=off_view[1:])
    flat, flat_view = _zeros("i", int(off_view[-1]))
    coef, coef_view = _zeros("b", int(off_view[-1]))
    for lo in range(0, len(keys), _CHUNK):
        chunk = keys[lo:lo + _CHUNK]
        codes = chunk[chunk != _PAD]
        entries = slice(off_view[lo], off_view[lo + len(chunk)])
        np.floor_divide(codes, 5, out=flat_view[entries])
        np.remainder(codes, 5, out=coef_view[entries], casting="unsafe")
    coef_view -= 2
    return off, flat, coef


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

    ``_flat``/``_coef`` hold the concatenated sparse entries of all moves,
    ``_off`` the per-move offsets; this keeps a 331k-move basis (a 12x12
    common-block grid) at about 15 MB.  ``len`` counts unsigned moves.
    """

    kind = "enumerated"

    def __init__(self, R: int, C: int, model, keys: np.ndarray, tcodes: np.ndarray) -> None:
        self.R = R
        self.C = C
        self.model = model
        self._off, self._flat, self._coef = _decode(keys)
        self._tcode = bytes(np.asarray(tcodes, dtype=np.uint8))

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
    rband = np.array([_models.row_band(model, i) for i in range(1, R + 1)])
    cband = np.array([_models.col_band(model, j) for j in range(1, C + 1)])
    return rband, cband, _models.n_blocks(model)


def _term_matrix(model, R: int, C: int) -> np.ndarray:
    """Terms x cells 0/1 matrix, the subtable rows of the configuration:
    row q marks the flat cells of term q."""
    return build_configuration(model, R, C).matrix[R + C:].astype(np.int8)


def _balanced(terms: np.ndarray, flats: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Mask of the candidate moves whose coefficients sum to 0 on every term."""
    return ~(terms[:, flats] * coefs).sum(axis=2).any(axis=0)


def _keys(flats: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Canonical keys of (n, k) candidate moves: coincident cells merged,
    the orientation whose lowest cell is positive, signed-cell codes sorted
    and padded to ``_KEY_WIDTH``."""
    n, k = flats.shape
    order = np.argsort(flats, axis=1, kind="stable")
    flats = np.take_along_axis(flats, order, axis=1)
    coefs = np.take_along_axis(np.broadcast_to(coefs, (n, k)), order, axis=1)
    head = np.ones((n, k), dtype=bool)
    head[:, 1:] = flats[:, 1:] != flats[:, :-1]
    if not head.all():
        # sum each run of one cell into its first slot, zero the rest
        starts = np.flatnonzero(head)
        merged = np.zeros((n, k), dtype=coefs.dtype)
        merged[head] = np.add.reduceat(coefs.ravel(), starts)
        coefs = merged
    live = coefs != 0
    sign = np.sign(coefs[np.arange(n), np.argmax(live, axis=1)]).astype(coefs.dtype)
    keys = np.full((n, _KEY_WIDTH), _PAD, dtype=np.int32)
    keys[:, :k] = np.where(live, flats * 5 + coefs * sign[:, None] + 2, _PAD)
    keys.sort(axis=1)
    return keys


# --- the kernels: index arrays -> (flat cells, coefficients, type code) ---------

_I_COEFS = np.array([1, -1, -1, 1], dtype=np.int8)
_LOOP_COEFS = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
_IV_COEFS = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8)
_UNIQUE_SLOT = -1 - np.arange(6)


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


# --- enumeration: every index product ---------------------------------------------

class _Candidates:
    """Canonical keys and type codes of generated moves, in generation order."""

    def __init__(self, terms: np.ndarray) -> None:
        self.terms = terms
        self.keys: list[np.ndarray] = []
        self.tcodes: list[np.ndarray] = []

    def add(self, flats: np.ndarray, coefs: np.ndarray, tcodes) -> None:
        ok = _balanced(self.terms, flats, coefs)
        if not ok.any():
            return
        self.keys.append(_keys(flats[ok], coefs))
        self.tcodes.append(np.broadcast_to(tcodes, ok.shape)[ok])

    def basis(self, R: int, C: int, model) -> MoveBasis:
        """Deduplicate on the key, keeping first occurrences in order."""
        if not self.keys:
            empty = np.empty((0, _KEY_WIDTH), dtype=np.int32)
            return MoveBasis(R, C, model, empty, np.empty(0, dtype=np.uint8))
        keys = np.concatenate(self.keys)
        tcodes = np.concatenate(self.tcodes)
        self.keys, self.tcodes = [], []
        order = np.lexsort(keys.T)  # stable: equal keys keep generation order
        ranked = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        del ranked
        keep = np.sort(order[first])
        keys = keys[keep]
        return MoveBasis(R, C, model, keys, tcodes[keep])


def _pairs(n: int, k: int) -> np.ndarray:
    """(m, k) array of the k-subsets of range(n), in lexicographic order."""
    return np.array(list(combinations(range(n), k)), dtype=np.int32).reshape(-1, k)


def _type_i(out: _Candidates, R: int, C: int) -> None:
    """Every basic move with i1 < i2, j1 < j2."""
    rows, cols = _pairs(R, 2), _pairs(C, 2)
    flats, coefs, tcode = _type_i_cells(rows[:, :1], rows[:, 1:], cols[:, 0], cols[:, 1], C)
    out.add(flats.reshape(-1, 4), coefs, tcode)


def basis_change_point(model, R: int, C: int) -> MoveBasis:
    """All basic moves whose 2x2 corner strata balance, one sign each.

    Accepts change-point and independence specs (the latter has a single
    stratum, so every minor qualifies).  With nested rectangles, balanced
    strata are exactly balanced rectangle sums, so the term matrix decides.
    """
    if model.family not in (_models.CHANGE_POINT, _models.INDEPENDENCE):
        raise _models.ModelError(f"change-point basis needs a change-point model, got {model.family}")
    _models.require_valid(model, R, C)
    out = _Candidates(_term_matrix(model, R, C))
    _type_i(out, R, C)
    return out.basis(R, C, model)


def _type_ii_iii(out: _Candidates, bands, R: int, C: int, wanted: list[int]) -> None:
    """Every degree-3 loop of the wanted codes.  A loop on rows r and
    columns c has +1 at (r[k], c[p[k]]) and -1 at (r[k], c[p[k+1 mod 3]])
    for a permutation p; the shift by one alone gives every loop once up to
    sign.  Row triples are handled in chunks."""
    perms = np.array(list(permutations(range(3))))
    col3 = _pairs(C, 3)
    # (column triple, permutation) -> the columns of the +1, then the -1 cells
    cols = np.concatenate([col3[:, perms], col3[:, perms[:, [1, 2, 0]]]], axis=2).reshape(-1, 6)
    row3 = _pairs(R, 3)
    rows = np.concatenate([row3, row3], axis=1)
    if not len(cols) or not len(rows):
        return
    step = max(1, _CHUNK // len(cols))
    for lo in range(0, len(rows), step):
        flats, coefs, tcode = _loop_cells(bands, rows[lo:lo + step, None, :], cols, C)
        keep = np.isin(tcode, wanted)
        out.add(flats[keep], coefs, tcode[keep])


def _type_iv(out: _Candidates, bands, C: int, transposed: bool) -> None:
    """Every Type IV move.  The pattern of blocks (l, k) is the negation of
    that of (k, l), so only k < l is generated, one block pair at a time."""
    rband, cband, N = bands
    if transposed:
        rband, cband = cband, rband
    for k in range(1, N + 1):
        for l in range(k + 1, N + 1):
            rk, rl = np.flatnonzero(rband == k), np.flatnonzero(rband == l)
            ck, cl = np.flatnonzero(cband == k), np.flatnonzero(cband == l)
            other = np.flatnonzero((cband != k) & (cband != l))
            if not (len(rk) and len(rl) and len(ck) and len(cl) and len(other)):
                continue
            for first in rk:  # one first row at a time bounds the working set
                grid = np.meshgrid(rk, rl, rl, ck, cl, other, other, indexing="ij")
                i2, i3, i4, j1, j2, j3, j4 = (g.ravel().astype(np.int32) for g in grid)
                out.add(*_type_iv_cells(np.int32(first), i2, i3, i4, j1, j2, j3, j4,
                                        C, transposed))


def _block_types(model, types) -> tuple[str, ...]:
    """Own-parameter models get Types I+II (the unique minimal basis; Type
    II is vacuous for N = 2), common/general models Types I-IV with Type IV
    transposes; ``types`` restricts the selection."""
    if types is None:
        return ("I", "II") if model.family == _models.OWN_BLOCKS else TYPE_NAMES
    unknown = set(types) - set(TYPE_NAMES)
    if unknown:
        raise ValueError(f"unknown move types {sorted(unknown)}")
    return tuple(types)


def basis_block(model, R: int, C: int, types: tuple[str, ...] | None = None) -> MoveBasis:
    """Markov basis for a block-family model.

    ``types`` restricts the default selection, which the verification sweeps
    use to exhibit disconnection witnesses.
    """
    if model.family not in (_models.OWN_BLOCKS, _models.COMMON_BLOCKS, _models.GENERAL_BLOCKS):
        raise _models.ModelError(f"block basis needs a block-family model, got {model.family}")
    _models.require_valid(model, R, C)
    types = _block_types(model, types)
    bands = _bands(model, R, C)
    out = _Candidates(_term_matrix(model, R, C))
    if "I" in types:
        _type_i(out, R, C)
    if "II" in types or "III" in types:
        _type_ii_iii(out, bands, R, C, [_TYPE_CODE[t] for t in ("II", "III") if t in types])
    if "IV" in types:
        _type_iv(out, bands, C, transposed=False)
    if "IVt" in types:
        _type_iv(out, bands, C, transposed=True)
    return out.basis(R, C, model)


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


def _pattern_space(t: str, R: int, C: int, bands) -> float:
    """A type's raw pattern-space size, or 0 where the bands rule it out.
    The six cells of a Type II/III loop lie in distinct blocks, and any two
    of its rows share a column (any two columns a row), so it needs three
    row bands and three column bands, a leftover band included; Type IV
    needs two diagonal blocks and a third column band for j3, j4 (IVt a
    third row band).  Without bands (change-point models) only Type I is
    drawn."""
    if t == "I":
        return R * (R - 1) / 2 * C * (C - 1) / 2
    if bands is None:
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


class LazyMoveBasis:
    """The same move families, drawn instead of enumerated, for grids too
    large to enumerate.  A candidate draws a type with weight proportional
    to its raw pattern-space size (0 for a type the bands rule out), then uniform distinct rows and columns
    and a shift of 1 or 2 (Types I-III), or a uniform ordered pair of
    diagonal blocks and uniform rows and columns of the bands the pattern
    needs (Type IV).  The kernels keep the candidates of the drawn type
    whose terms balance, so the selection is state-independent, and a
    sampler walks through them one batch at a time."""

    kind = "lazy"

    def __init__(self, model, R: int, C: int, types: tuple[str, ...]) -> None:
        _models.require_valid(model, R, C)
        self.model = model
        self.R = R
        self.C = C
        self.types = types
        self._terms = _term_matrix(model, R, C)
        bands = None
        if model.family not in (_models.CHANGE_POINT, _models.INDEPENDENCE):
            self._bands = bands = rband, cband, N = _bands(model, R, C)
            self._index = (_band_index(rband, N + 1), _band_index(cband, N + 1))
        weights = np.array([_pattern_space(t, R, C, bands) for t in types])
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
        return _keys(flats[ok], coefs[ok]), drawn[ok].astype(np.uint8)

    def sampler(self, rng):
        """``(draw, store)`` like ``MoveBasis.sampler``; the store holds one
        batch of drawn moves, and ``draw()`` refills it in place when the
        batch is spent, so the returned arrays stay current."""
        store = off, flat, coef, tcode = array("i"), array("i"), array("b"), bytearray()
        pos = n = 0

        def draw() -> int:
            nonlocal pos, n
            if pos == n:
                keys, codes = self._batch(rng)
                while not len(codes):
                    keys, codes = self._batch(rng)
                off[:], flat[:], coef[:] = _decode(keys)
                tcode[:] = codes.tobytes()
                pos, n = 0, len(codes)
            pos += 1
            return pos - 1

        return draw, store


def basis_for_model(model, R: int, C: int, types: tuple[str, ...] | None = None,
                    enumerate_threshold: int = 400):
    """Dispatch on family; enumerate up to ``enumerate_threshold`` cells,
    return a lazy basis beyond it."""
    change_point = model.family in (_models.CHANGE_POINT, _models.INDEPENDENCE)
    if R * C > enumerate_threshold:
        return LazyMoveBasis(model, R, C, ("I",) if change_point else _block_types(model, types))
    if change_point:
        return basis_change_point(model, R, C)
    return basis_block(model, R, C, types)


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

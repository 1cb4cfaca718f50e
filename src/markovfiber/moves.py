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

An enumerated basis stores each move in one sign only, the orientation
whose lowest cell has a positive coefficient; the walk and ``random_move``
draw the sign uniformly, which keeps the proposal symmetric (Diaconis &
Sturmfels 1998).  Every type is generated as index products in numpy: all
candidates of a type become ``(n, k)`` arrays of flat cells and
coefficients, the term balance is one terms x cells matrix product, and
duplicates are dropped on a canonical key (the sorted signed-cell codes),
keeping the first occurrence in the order I, II/III, IV, IVt.  Grids up to
``enumerate_threshold`` cells (default 400) are enumerated into a compact
flat-array store; larger grids get a lazy rejection sampler with the same
per-move support.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import models as _models
from .tables import Configuration, flat_index

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


def _as_array(typecode: str, values) -> array:
    out = array(typecode)
    out.frombytes(np.ascontiguousarray(values, dtype=typecode).view(np.uint8))
    return out


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
        used = keys != _PAD
        self._off = _as_array("i", np.concatenate(([0], np.cumsum(used.sum(axis=1)))))
        codes = keys[used]
        # decode in place and free each temporary early: a 12x12 common-block
        # basis has 2.5M entries
        coef = codes % 5
        coef -= 2
        self._coef = _as_array("b", coef)
        del coef
        codes //= 5
        self._flat = _as_array("i", codes)
        self._tcode = bytes(np.asarray(tcodes, dtype=np.uint8))

    def __len__(self) -> int:
        return len(self._tcode)

    def move(self, k: int) -> Move:
        lo, hi = self._off[k], self._off[k + 1]
        C = self.C
        entries = tuple(
            (self._flat[p] // C + 1, self._flat[p] % C + 1, self._coef[p])
            for p in range(lo, hi)
        )
        return Move(entries, TYPE_NAMES[self._tcode[k]])

    def __iter__(self):
        return (self.move(k) for k in range(len(self)))

    def counts_by_type(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self._tcode, dtype=np.uint8),
                             minlength=len(TYPE_NAMES))
        return {name: int(n) for name, n in zip(TYPE_NAMES, counts) if n}

    def move_arrays(self) -> tuple[array, array, array]:
        """(offsets, flat cell ids, coefficients) for the sampler's hot loop."""
        return self._off, self._flat, self._coef


def _strata_grid(model, R: int, C: int) -> list[list[int]]:
    if model.family == _models.INDEPENDENCE:
        return [[1] * (C + 1) for _ in range(R + 1)]
    return [
        [0] * (C + 1)
    ] + [
        [0] + [_models.cell_stratum(model, R, C, i, j) for j in range(1, C + 1)]
        for i in range(1, R + 1)
    ]


def _term_grids(model, R: int, C: int) -> list[list[list[bool]]]:
    """1-based membership grids for each subtable term."""
    grids = []
    for _, cells in _models.terms(model, R, C):
        g = [[False] * (C + 1) for _ in range(R + 1)]
        for i, j in cells:
            g[i][j] = True
        grids.append(g)
    return grids


def _terms_balanced(term_grids, entries) -> bool:
    for g in term_grids:
        if sum(c for i, j, c in entries if g[i][j]) != 0:
            return False
    return True


def _band_tables(model, R: int, C: int) -> tuple[list[int], list[int], int]:
    """1-based band id per row and per column; leftover rows/cols (general
    model) get band N+1 so the complement is still carved into blocks."""
    N = _models.n_blocks(model)
    rows = [0] + [_models.row_band(model, i) for i in range(1, R + 1)]
    cols = [0] + [_models.col_band(model, j) for j in range(1, C + 1)]
    return rows, cols, N


def _term_matrix(model, R: int, C: int) -> np.ndarray:
    """Terms x cells 0/1 matrix: row q marks the flat cells of term q."""
    model_terms = _models.terms(model, R, C)
    out = np.zeros((len(model_terms), R * C), dtype=np.int8)
    for q, (_, cells) in enumerate(model_terms):
        out[q, [flat_index(i, j, C) for i, j in cells]] = 1
    return out


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


_I_COEFS = np.array([1, -1, -1, 1], dtype=np.int8)


def _pairs(n: int, k: int) -> np.ndarray:
    """(m, k) array of the k-subsets of range(n), in lexicographic order."""
    return np.array(list(combinations(range(n), k)), dtype=np.int32).reshape(-1, k)


def _type_i(out: _Candidates, R: int, C: int) -> None:
    """Every basic move (i1,j1) + (i2,j2) - (i1,j2) - (i2,j1), i1 < i2, j1 < j2."""
    rows = _pairs(R, 2) * C
    cols = _pairs(C, 2)
    i1, i2, j1, j2 = rows[:, :1], rows[:, 1:], cols[:, 0], cols[:, 1]
    flats = np.stack([i1 + j1, i1 + j2, i2 + j1, i2 + j2], axis=-1)
    out.add(flats.reshape(-1, 4), _I_COEFS, _TYPE_CODE["I"])


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


def _bands(model, R: int, C: int) -> tuple[np.ndarray, np.ndarray, int]:
    """0-based arrays of the 1-based row and column band ids, and N."""
    rband, cband, N = _band_tables(model, R, C)
    return np.array(rband[1:]), np.array(cband[1:]), N


def _all_distinct(codes: np.ndarray) -> np.ndarray:
    s = np.sort(codes, axis=-1)
    return (s[..., 1:] != s[..., :-1]).all(axis=-1)


_LOOP_COEFS = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)


def _type_ii_iii(out: _Candidates, model, R: int, C: int, want_ii: bool, want_iii: bool) -> None:
    """Degree-3 loops classified into Types II and III by block geometry.

    A loop on rows r and columns c has +1 at (r[k], c[p[k]]) and -1 at
    (r[k], c[p[k+1 mod 3]]) for a permutation p; the shift by one alone gives
    every loop once up to sign.  Row triples are handled in chunks.
    """
    rband, cband, N = _bands(model, R, C)
    n_bands = N + 2
    perms = np.array(list(permutations(range(3))))
    col3 = _pairs(C, 3)
    # (column triple, permutation) -> the columns of the +1, then the -1 cells
    cols = np.concatenate([col3[:, perms], col3[:, perms[:, [1, 2, 0]]]], axis=2).reshape(-1, 6)
    row3 = _pairs(R, 3)
    rows = np.concatenate([row3, row3], axis=1)
    if not len(cols) or not len(rows):
        return
    col_bands = cband[cols]
    unique_slot = -1 - np.arange(6)
    step = max(1, _CHUNK // len(cols))
    for lo in range(0, len(rows), step):
        r = rows[lo:lo + step, None, :]
        rb = rband[r]
        blocks = rb * n_bands + col_bands
        in_s = (rb == col_bands) & (rb <= N)
        n_s = in_s.sum(axis=2)
        tcode = np.full(n_s.shape, -1, dtype=np.int8)
        if want_ii:
            tcode[(n_s == 0) & _all_distinct(blocks)] = _TYPE_CODE["II"]
        if want_iii:
            iii = ((n_s == 2) & ((_LOOP_COEFS * in_s).sum(axis=2) == 0)
                   & _all_distinct(np.where(in_s, blocks, unique_slot))
                   & _all_distinct(np.where(in_s, unique_slot, blocks)))
            tcode[iii] = _TYPE_CODE["III"]
        a, b = np.nonzero(tcode >= 0)
        flats = rows[lo + a] * C + cols[b]
        out.add(flats, _LOOP_COEFS, tcode[a, b])


_IV_COEFS = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8)


def _type_iv(out: _Candidates, model, R: int, C: int, transposed: bool) -> None:
    """Degree-4 double interchanges between diagonal blocks k and l:
    +1 at (i1,j1) (i2,j2) (i3,j3) (i4,j4) and -1 at (i1,j3) (i2,j4) (i3,j2)
    (i4,j1), with i1, i2 in row band k, i3, i4 in row band l, j1 in column
    band k, j2 in column band l and j3, j4 in neither; coincident indices
    stack into +-2 entries.  The pattern of (l, k) is the negation of that
    of (k, l), so only k < l is generated, one block pair at a time.  The
    transpose runs the same pattern with rows and columns swapped."""
    rband, cband, N = _bands(model, R, C)
    if transposed:
        rband, cband = cband, rband
    tcode = _TYPE_CODE["IVt" if transposed else "IV"]
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
                i1 = np.full_like(i2, first)
                rows = np.stack([i1, i2, i3, i4, i1, i2, i3, i4], axis=1)
                cols = np.stack([j1, j2, j3, j4, j3, j4, j2, j1], axis=1)
                if transposed:
                    rows, cols = cols, rows
                out.add(rows * C + cols, _IV_COEFS, tcode)


def basis_block(model, R: int, C: int, types: tuple[str, ...] | None = None) -> MoveBasis:
    """Markov basis for a block-family model.

    Default type selection: own-parameter models get Types I+II (the unique
    minimal basis; Type II is vacuous for N = 2), common/general models get
    Types I-IV with Type IV transposes.  ``types`` restricts the selection,
    which the verification sweeps use to exhibit disconnection witnesses.
    """
    if model.family not in (_models.OWN_BLOCKS, _models.COMMON_BLOCKS, _models.GENERAL_BLOCKS):
        raise _models.ModelError(f"block basis needs a block-family model, got {model.family}")
    _models.require_valid(model, R, C)
    if types is None:
        types = ("I", "II") if model.family == _models.OWN_BLOCKS else ("I", "II", "III", "IV", "IVt")
    unknown = set(types) - set(TYPE_NAMES)
    if unknown:
        raise ValueError(f"unknown move types {sorted(unknown)}")
    out = _Candidates(_term_matrix(model, R, C))
    if "I" in types:
        _type_i(out, R, C)
    if "II" in types or "III" in types:
        _type_ii_iii(out, model, R, C, "II" in types, "III" in types)
    if "IV" in types:
        _type_iv(out, model, R, C, transposed=False)
    if "IVt" in types:
        _type_iv(out, model, R, C, transposed=True)
    return out.basis(R, C, model)


def _type_iv_entries(i1, i2, i3, i4, j1, j2, j3, j4):
    """Accumulate the degree-4 double-interchange pattern; coincident indices
    stack into +-2 entries (the non-square-free moves)."""
    acc: dict[tuple[int, int], int] = {}
    for (i, j), c in (
        ((i1, j1), 1), ((i2, j2), 1), ((i3, j3), 1), ((i4, j4), 1),
        ((i1, j3), -1), ((i2, j4), -1), ((i3, j2), -1), ((i4, j1), -1),
    ):
        acc[(i, j)] = acc.get((i, j), 0) + c
    return tuple((i, j, c) for (i, j), c in acc.items() if c)


class LazyMoveBasis:
    """Rejection sampler over the same move families, for grids too large to
    enumerate.  Draw a type with weight proportional to its raw pattern-space
    size, then uniform indices; invalid candidates are rejected and redrawn,
    so the selection is state-independent and sign-symmetric."""

    kind = "lazy"

    def __init__(self, model, R: int, C: int, types: tuple[str, ...]) -> None:
        self.model = model
        self.R = R
        self.C = C
        self.types = types
        self._term_grids = _term_grids(model, R, C)
        self._strata = (
            _strata_grid(model, R, C)
            if model.family in (_models.CHANGE_POINT, _models.INDEPENDENCE)
            else None
        )
        if self._strata is None:
            self._rband, self._cband, self._N = _band_tables(model, R, C)
        weights = [self._pattern_space(t) for t in types]
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("lazy basis has empty pattern space")
        # types with an empty pattern space are never drawn
        self._drawn = tuple(t for t, w in zip(types, weights) if w > 0)
        self._cum = []
        acc = 0.0
        for w in weights:
            if w > 0:
                acc += w / total
                self._cum.append(acc)

    def _pattern_space(self, t: str) -> float:
        R, C = self.R, self.C
        if t == "I":
            return R * (R - 1) / 2 * C * (C - 1) / 2
        if t in ("II", "III"):
            return R * (R - 1) * (R - 2) * C * (C - 1) * (C - 2) / 3
        if self._N < 2:
            return 0  # Type IV needs two diagonal blocks
        return R * R * C * C  # rough; only relative draw rates are affected
    def _draw_candidate(self, t: str, rng):
        R, C = self.R, self.C
        if t == "I":
            i1, i2 = rng.sample(range(1, R + 1), 2)
            j1, j2 = rng.sample(range(1, C + 1), 2)
            return ((i1, j1, 1), (i2, j2, 1), (i1, j2, -1), (i2, j1, -1))
        if t in ("II", "III"):
            rows = rng.sample(range(1, R + 1), 3)
            cols = rng.sample(range(1, C + 1), 3)
            pos = list(range(3))
            rng.shuffle(pos)
            shift = rng.choice((1, 2))
            entries = tuple((rows[k], cols[pos[k]], 1) for k in range(3)) + tuple(
                (rows[k], cols[pos[(k + shift) % 3]], -1) for k in range(3)
            )
            return entries
        # Type IV and its transpose, by uniform band/index draw
        transposed = t == "IVt"
        rband, cband = self._rband, self._cband
        if transposed:
            rband, cband = cband, rband
            R, C = C, R
        N = self._N
        k, l = rng.sample(range(1, N + 1), 2)
        rows_k = [i for i in range(1, R + 1) if rband[i] == k]
        rows_l = [i for i in range(1, R + 1) if rband[i] == l]
        cols_k = [j for j in range(1, C + 1) if cband[j] == k]
        cols_l = [j for j in range(1, C + 1) if cband[j] == l]
        other = [j for j in range(1, C + 1) if cband[j] not in (k, l)]
        if not (rows_k and rows_l and cols_k and cols_l and other):
            return None
        entries = _type_iv_entries(
            rng.choice(rows_k), rng.choice(rows_k),
            rng.choice(rows_l), rng.choice(rows_l),
            rng.choice(cols_k), rng.choice(cols_l),
            rng.choice(other), rng.choice(other),
        )
        if transposed:
            entries = tuple((j, i, c) for i, j, c in entries)
        return entries

    def _classify_ok(self, t: str, entries) -> bool:
        if self._strata is not None:
            strata = self._strata
            (i1, j1, _), (i2, j2, _), (i1b, j2b, _), (i2b, j1b, _) = entries
            return sorted((strata[i1][j1], strata[i2][j2])) == sorted(
                (strata[i1][j2], strata[i2][j1])
            )
        rband, cband, N = self._rband, self._cband, self._N
        if t in ("II", "III"):
            blocks = [(rband[i], cband[j]) for i, j, _ in entries]
            in_s = [k == l and k <= N for k, l in blocks]
            n_s = sum(in_s)
            if t == "II":
                if n_s != 0 or len(set(blocks)) != 6:
                    return False
            else:
                if n_s != 2:
                    return False
                s_entries = [e for e, s in zip(entries, in_s) if s]
                if s_entries[0][2] + s_entries[1][2] != 0:
                    return False
                b = [blk for blk, s in zip(blocks, in_s) if s]
                if b[0] == b[1]:
                    return False
                rest = [blk for blk, s in zip(blocks, in_s) if not s]
                if len(set(rest)) != 4:
                    return False
        return _terms_balanced(self._term_grids, entries)

    def random_move(self, rng) -> Move:
        while True:
            u = rng.random()
            t = self._drawn[-1]
            for name, edge in zip(self._drawn, self._cum):
                if u <= edge:
                    t = name
                    break
            entries = self._draw_candidate(t, rng)
            if entries is None:
                continue
            if not self._classify_ok(t, entries):
                continue
            return Move(tuple(sorted(entries)), t)


def basis_for_model(model, R: int, C: int, types: tuple[str, ...] | None = None,
                    enumerate_threshold: int = 400):
    """Dispatch on family; enumerate up to ``enumerate_threshold`` cells,
    return a lazy sampler beyond it."""
    if model.family in (_models.CHANGE_POINT, _models.INDEPENDENCE):
        if R * C <= enumerate_threshold:
            return basis_change_point(model, R, C)
        return LazyMoveBasis(model, R, C, ("I",))
    if R * C <= enumerate_threshold:
        return basis_block(model, R, C, types)
    if types is None:
        types = ("I", "II") if model.family == _models.OWN_BLOCKS else ("I", "II", "III", "IV", "IVt")
    return LazyMoveBasis(model, R, C, types)


def random_move(basis, rng) -> Move:
    """Uniform move and uniform sign from an enumerated basis, as the walk
    draws them; delegated draw for lazy ones.

    Every basis element has positive draw probability in both signs and the
    distribution is state-independent, which is what the Metropolis kernel
    requires.
    """
    if isinstance(basis, LazyMoveBasis):
        return basis.random_move(rng)
    n = len(basis)
    if n == 0:
        raise ValueError("basis is empty")
    move = basis.move(rng.randrange(n))
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

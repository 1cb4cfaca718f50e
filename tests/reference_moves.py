"""Loop-based reference builder for the enumerated move bases.

This is the straightforward nested-loop construction the vectorized builder
in ``markovfiber.moves`` must reproduce: every type is generated in both
orientations, duplicates are dropped by their signed sorted entries, and a
move keeps the type tag of its first occurrence in the order I, II/III, IV,
IVt.  It is slow (seconds on a 12x12 common-blocks grid) and kept only as a
test oracle.

The second half of the file is the earlier numpy builder, ``streamed_store``,
which the byte oracle tests hold ``enumerate_basis`` to.
"""

from array import array
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import NamedTuple

import numpy as np

from markovfiber import models as _models
from markovfiber.models import build_configuration
from markovfiber.tables import flat_index
from reference_models import cell_stratum, col_band, row_band, term_membership

TYPE_ORDER = ("I", "II", "III", "IV", "IVt")


def flats_coefs(move, C):
    """A move's flat row-major cells and coefficients, in entry order."""
    return (tuple(flat_index(i, j, C) for i, j, _ in move.entries),
            tuple(c for _, _, c in move.entries))


def _term_grids(model, R, C):
    """Per term, g[i][j] for 1-based cells (i, j): is the cell in the term."""
    grids = []
    for row in term_membership(model, R, C):
        g = [[False] * (C + 1) for _ in range(R + 1)]
        for p, inside in enumerate(row):
            g[p // C + 1][p % C + 1] = bool(inside)
        grids.append(g)
    return grids


def _terms_balanced(term_grids, entries):
    return all(sum(c for i, j, c in entries if g[i][j]) == 0 for g in term_grids)


def _strata_grid(model, R, C):
    if model.family == _models.INDEPENDENCE:
        return [[1] * (C + 1) for _ in range(R + 1)]
    return [[0] * (C + 1)] + [
        [0] + [cell_stratum(model, R, C, i, j) for j in range(1, C + 1)]
        for i in range(1, R + 1)
    ]


def _band_tables(model, R, C):
    N = _models.n_blocks(model)
    rows = [0] + [row_band(model, i) for i in range(1, R + 1)]
    cols = [0] + [col_band(model, j) for j in range(1, C + 1)]
    return rows, cols, N


class _Signed:
    """Signed move list with first-occurrence dedup on sorted entries."""

    def __init__(self):
        self.seen = set()
        self.moves = []  # (sorted entries, type tag)

    def add(self, entries, mtype):
        key = tuple(sorted(entries))
        if key not in self.seen:
            self.seen.add(key)
            self.moves.append((key, mtype))


def _minors(out, R, C, keep):
    for i1, i2 in combinations(range(1, R + 1), 2):
        for j1, j2 in combinations(range(1, C + 1), 2):
            entries = ((i1, j1, 1), (i2, j2, 1), (i1, j2, -1), (i2, j1, -1))
            if keep(i1, i2, j1, j2, entries):
                out.add(entries, "I")
                out.add(tuple((i, j, -c) for i, j, c in entries), "I")


def _loops(out, model, R, C, grids, want_ii, want_iii):
    rband, cband, N = _band_tables(model, R, C)
    for rows in combinations(range(1, R + 1), 3):
        for cols in combinations(range(1, C + 1), 3):
            for pos in permutations((0, 1, 2)):
                for shift in (1, 2):
                    neg = tuple(pos[(k + shift) % 3] for k in range(3))
                    entries = tuple((rows[k], cols[pos[k]], 1) for k in range(3)) + tuple(
                        (rows[k], cols[neg[k]], -1) for k in range(3))
                    blocks = [(rband[i], cband[j]) for i, j, _ in entries]
                    in_s = [k == l and k <= N for k, l in blocks]
                    n_s = sum(in_s)
                    if n_s == 0:
                        if not want_ii or len(set(blocks)) != 6:
                            continue
                        mtype = "II"
                    elif n_s == 2 and want_iii:
                        (i1, j1, c1), (i2, j2, c2) = [e for e, s in zip(entries, in_s) if s]
                        if c1 + c2 != 0:
                            continue
                        if (rband[i1], cband[j1]) == (rband[i2], cband[j2]):
                            continue
                        if len({b for b, s in zip(blocks, in_s) if not s}) != 4:
                            continue
                        mtype = "III"
                    else:
                        continue
                    if _terms_balanced(grids, entries):
                        out.add(entries, mtype)


def _type_iv_entries(i1, i2, i3, i4, j1, j2, j3, j4):
    acc = {}
    for (i, j), c in (
        ((i1, j1), 1), ((i2, j2), 1), ((i3, j3), 1), ((i4, j4), 1),
        ((i1, j3), -1), ((i2, j4), -1), ((i3, j2), -1), ((i4, j1), -1),
    ):
        acc[(i, j)] = acc.get((i, j), 0) + c
    return tuple((i, j, c) for (i, j), c in acc.items() if c)


def _type_iv(out, model, R, C, grids, transposed):
    rband, cband, N = _band_tables(model, R, C)
    if transposed:
        rband, cband = cband, rband
        R, C = C, R
    rows_of = [[] for _ in range(max(rband[1:]) + 1)]
    for i in range(1, R + 1):
        rows_of[rband[i]].append(i)
    cols_of = [[] for _ in range(max(cband[1:]) + 1)]
    for j in range(1, C + 1):
        cols_of[cband[j]].append(j)
    mtype = "IVt" if transposed else "IV"
    for k in range(1, N + 1):
        for l in range(1, N + 1):
            if k == l or not rows_of[k] or not rows_of[l]:
                continue
            other = [j for j in range(1, C + 1) if cband[j] not in (k, l)]
            if not cols_of[k] or not cols_of[l] or not other:
                continue
            for i1 in rows_of[k]:
                for i2 in rows_of[k]:
                    for i3 in rows_of[l]:
                        for i4 in rows_of[l]:
                            for j1 in cols_of[k]:
                                for j2 in cols_of[l]:
                                    for j3 in other:
                                        for j4 in other:
                                            entries = _type_iv_entries(
                                                i1, i2, i3, i4, j1, j2, j3, j4)
                                            if transposed:
                                                entries = tuple((j, i, c) for i, j, c in entries)
                                            if _terms_balanced(grids, entries):
                                                out.add(entries, mtype)


def reference_moves(model, R, C, types=None):
    """Signed reference basis: a list of (sorted entries, type tag) holding
    every move in both orientations, in generation order."""
    _models.require_valid(model, R, C)
    out = _Signed()
    if model.family in (_models.CHANGE_POINT, _models.INDEPENDENCE):
        strata = _strata_grid(model, R, C)
        _minors(out, R, C, lambda i1, i2, j1, j2, _e: sorted(
            (strata[i1][j1], strata[i2][j2])) == sorted((strata[i1][j2], strata[i2][j1])))
        return out.moves
    if types is None:
        types = ("I", "II") if model.family == _models.OWN_BLOCKS else TYPE_ORDER
    grids = _term_grids(model, R, C)
    if "I" in types:
        _minors(out, R, C, lambda *a: _terms_balanced(grids, a[-1]))
    if "II" in types or "III" in types:
        _loops(out, model, R, C, grids, "II" in types, "III" in types)
    if "IV" in types:
        _type_iv(out, model, R, C, grids, transposed=False)
    if "IVt" in types:
        _type_iv(out, model, R, C, grids, transposed=True)
    return out.moves


def unsigned_key(entries):
    """Sign-free key for a move: the lexicographically smaller orientation."""
    pos = tuple(sorted(entries))
    neg = tuple(sorted((i, j, -c) for i, j, c in entries))
    return min(pos, neg)


def reference_unsigned(model, R, C, types=None):
    """{unsigned key: type tag of the first stored orientation}."""
    out = {}
    for entries, mtype in reference_moves(model, R, C, types):
        out.setdefault(unsigned_key(entries), mtype)
    return out


# --- the streamed builder: a byte oracle for ``markovfiber.moves`` ------------------
#
# The numpy builder that ``enumerate_basis`` replaced, kept unchanged apart
# from its last line, which returns the store (offsets, flat cell ids,
# coefficients, type code bytes) instead of a ``MoveBasis``: band
# configurations decided on one representative tuple, every kept tuple
# decoded slot by slot with ``%`` and ``//``, canonical keys from two row
# sorts.  ``enumerate_basis`` must store the same bytes for every model.

TYPE_NAMES = ("I", "II", "III", "IV", "IVt")
_TYPE_CODE = {name: k for k, name in enumerate(TYPE_NAMES)}

# A canonical key holds the signed-cell codes flat * 5 + coef + 2 of one
# move (coefficients are +-1 or +-2), sorted and padded to the widest move,
# Type IV with eight cells, with the largest value of the key dtype.  Codes
# and flat cell ids are int16 up to 6,553 cells, so on every enumerated grid
# (``ENUMERATION_THRESHOLD``), and int32 beyond.
_KEY_WIDTH = 8
# Index tuples, and band configurations, generated per numpy pass; the
# build's working memory is a few times this many, whatever the size of the
# basis.
_CHUNK = 1 << 13


def _code_type(cells: int) -> str:
    """Typecode of the signed-cell codes and flat cell ids on a grid of this
    many cells: int16 while every code and the pad fit, int32 beyond."""
    return "h" if 5 * cells < np.iinfo(np.int16).max else "i"


def _append(store, keys: np.ndarray, neg: array | None = None) -> None:
    """Append the moves with these keys to a store's (offsets, flat cell ids,
    coefficients), whose flat cell ids have the keys' dtype, and their
    negated coefficients to ``neg`` if given; each key decodes to its cells
    in ascending order."""
    off, flat, coef = store
    live = keys != np.iinfo(keys.dtype).max
    codes = keys[live]
    off.frombytes((np.cumsum(live.sum(axis=1), dtype=np.int32) + off[-1]).tobytes())
    flat.frombytes((codes // 5).tobytes())
    coefs = (codes % 5 - 2).astype(np.int8)
    coef.frombytes(coefs.tobytes())
    if neg is not None:
        neg.frombytes(np.negative(coefs, out=coefs).tobytes())



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


# --- the kernels: index tuples -> flat cells ---------------------------------------

class _Kernel(NamedTuple):
    """Cell q of the move of index tuple ``idx`` is (idx[rows[q]],
    idx[cols[q]]), with coefficient coefs[q]; the kernel yields moves of
    ``types``."""

    rows: list[int]
    cols: list[int]
    coefs: np.ndarray
    types: tuple[str, ...]

    def cells(self, idx: np.ndarray, C: int) -> np.ndarray:
        """(n, k) flat cells of the moves of (n, slots) index tuples."""
        return idx[:, self.rows] * C + idx[:, self.cols]

    def axes(self) -> list[int]:
        """Each slot's axis: 0 for a row index, 1 for a column index."""
        return [int(s in self.cols) for s in range(len(set(self.rows + self.cols)))]


_LOOP_COEFS = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
_IV_ROWS, _IV_COLS = [0, 1, 2, 3, 0, 1, 2, 3], [4, 5, 6, 7, 6, 7, 5, 4]
_IV_COEFS = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8)
# Type I, slots (i1, i2, j1, j2): +1 at (i1,j1) (i2,j2), -1 at (i1,j2) (i2,j1).
# Types II/III, slots (r1, r2, r3, x1, x2, x3): the degree-3 loop with +1 at
# (r_q, x_q) and -1 at (r_q, x_q+1), cyclically.  Type IV, slots (i1..i4,
# j1..j4): +1 at (i1,j1) (i2,j2) (i3,j3) (i4,j4) and -1 at (i1,j3) (i2,j4)
# (i3,j2) (i4,j1); coincident indices stack into +-2 entries once the move is
# keyed.  IVt takes the same slots in the transposed grid.
_KERNELS = {
    "I": _Kernel([0, 0, 1, 1], [2, 3, 2, 3], np.array([1, -1, -1, 1], dtype=np.int8), ("I",)),
    "loop": _Kernel([0, 1, 2, 0, 1, 2], [3, 4, 5, 4, 5, 3], _LOOP_COEFS, ("II", "III")),
    "IV": _Kernel(_IV_ROWS, _IV_COLS, _IV_COEFS, ("IV",)),
    "IVt": _Kernel(_IV_COLS, _IV_ROWS, _IV_COEFS, ("IVt",)),
}


def _once(kernel: str, idx: np.ndarray) -> np.ndarray:
    """Mask of the index tuples that stand for their move.  A Type I move
    takes i1 < i2 and j1 < j2.  A Type IV move with i1 = i2 and i3 = i4 is
    the same for (j3, j4) and (j4, j3), and takes j3 <= j4.  Every other
    tuple of a configuration is a move of its own."""
    if kernel == "I":
        return (idx[:, 0] < idx[:, 1]) & (idx[:, 2] < idx[:, 3])
    if kernel == "loop":
        return np.ones(len(idx), dtype=bool)
    return (idx[:, 0] != idx[:, 1]) | (idx[:, 2] != idx[:, 3]) | (idx[:, 6] <= idx[:, 7])


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
    terms = _term_matrix(model, R, C)
    rows, cols, N = _band_sizes(model, R, C, terms)
    code = _code_type(R * C)
    # one lookup for both axes: column band b is entry len(rows) + b
    sizes = np.concatenate([rows, cols])
    firsts = np.concatenate([np.cumsum(rows) - rows, np.cumsum(cols) - cols])
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
            if name == "loop":
                tcode = _loop_type(band[:, kernel.rows], band[:, kernel.cols], N)
            else:
                tcode = np.full(len(band), wanted[0], dtype=np.int8)
            kept = _kept(name, first, size)
            ok = (tcode[:, None] == wanted).any(axis=1) & (kept > 0)
            if name in ("IV", "IVt"):  # j3 and j4 in neither diagonal block
                ok &= ~(band[:, 6:, None] == band[:, None, [0, 2]]).any(axis=(1, 2))
            ok[ok] = _balanced(terms, kernel.cells(first[ok], C), kernel.coefs)
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
    """Every index tuple of the configurations, as (n, slots) arrays of
    typecode ``code``, with each tuple's type code: configuration by
    configuration, each band product in C order (the last slot fastest),
    ``_CHUNK`` tuples at a time."""
    raw = configs.size.prod(axis=1)
    end = np.cumsum(raw)
    total = int(end[-1]) if len(end) else 0
    for lo in range(0, total, _CHUNK):
        at = np.arange(lo, min(lo + _CHUNK, total))
        k = np.searchsorted(end, at, side="right")
        rest = at - (end[k] - raw[k])
        idx = np.empty((len(at), configs.size.shape[1]), dtype=code)
        for s in reversed(range(idx.shape[1])):
            n = configs.size[k, s]
            idx[:, s] = configs.first[k, s] + rest % n
            rest //= n
        yield idx, configs.tcode[k]



def streamed_store(model, R: int, C: int, types: tuple[str, ...] | None = None):
    """Every move of the model's types (``_move_types``) on the R x C grid,
    one sign each.  For change-point models these are the basic moves whose
    corner strata balance: with nested rectangles, balanced strata are
    exactly balanced rectangle sums, so the term matrix decides."""
    _models.require_valid(model, R, C)
    code = _code_type(R * C)
    store = array("i", [0]), array(code), array("b")
    tcode = bytearray()
    for configs in _configurations(model, R, C, _move_types(model, types)):
        kernel = _KERNELS[configs.kernel]
        for idx, codes in _tuples(configs, code):
            keep = _once(configs.kernel, idx)
            _append(store, _keys(kernel.cells(idx[keep], C), kernel.coefs, code))
            tcode += codes[keep].tobytes()
    return (*store, bytes(tcode))

"""Loop-based reference builder for the enumerated move bases.

This is the straightforward nested-loop construction the vectorized builder
in ``markovfiber.moves`` must reproduce: every type is generated in both
orientations, duplicates are dropped by their signed sorted entries, and a
move keeps the type tag of its first occurrence in the order I, II/III, IV,
IVt.  It is slow (seconds on a 12x12 common-blocks grid) and kept only as a
test oracle.
"""

from itertools import combinations, permutations

from markovfiber import models as _models
from markovfiber.tables import flat_index
from reference_models import cell_stratum, col_band, row_band

TYPE_ORDER = ("I", "II", "III", "IV", "IVt")


def flats_coefs(move, C):
    """A move's flat row-major cells and coefficients, in entry order."""
    return (tuple(flat_index(i, j, C) for i, j, _ in move.entries),
            tuple(c for _, _, c in move.entries))


def _term_grids(model, R, C):
    grids = []
    for _, cells in _models.terms(model, R, C):
        g = [[False] * (C + 1) for _ in range(R + 1)]
        for i, j in cells:
            g[i][j] = True
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

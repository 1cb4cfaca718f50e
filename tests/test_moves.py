"""Move bases: membership oracles, kernel checks, sampling, dump format."""

import hashlib
import io
from array import array
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chisquare

from markovfiber.models import (
    CHANGE_POINT,
    COMMON_BLOCKS,
    GENERAL_BLOCKS,
    INDEPENDENCE,
    OWN_BLOCKS,
    ModelError,
    ModelSpec,
    terms,
)
from markovfiber.moves import (
    _SORT,
    _Store,
    TYPE_NAMES,
    LazyMoveBasis,
    Move,
    MoveBasis,
    basis_for_model,
    enumerate_basis,
    dump_moves,
    format_move,
    is_kernel_move,
    random_move,
)
from markovfiber.tables import Rectangle, build_configuration
from markovfiber.datasets import gilby_model, victoria_models
from reference_models import cell_stratum, term_membership
from reference_moves import flats_coefs, reference_unsigned, streamed_store, unsigned_key


def _blocks(family, rows, cols, groups=()):
    return ModelSpec(family=family, row_bounds=rows, col_bounds=cols, groups=groups)


# (model, R, C, types): N = 1..3, even and uneven bands, leftover bands of
# general models, restricted type selections, change-point and independence
ORACLE_CASES = [
    (ModelSpec(family=INDEPENDENCE), 3, 4, None),
    (gilby_model(), 8, 4, None),
    (ModelSpec(family=CHANGE_POINT,
               rectangles=(Rectangle(2, 3, 1, 2), Rectangle(1, 4, 1, 3))), 5, 4, None),
    (_blocks(OWN_BLOCKS, (1, 5), (1, 5)), 4, 4, None),
    (_blocks(OWN_BLOCKS, (1, 3, 6), (1, 2, 5)), 5, 4, None),
    (_blocks(OWN_BLOCKS, (1, 3, 5, 7), (1, 3, 5, 7)), 6, 6, None),
    (_blocks(OWN_BLOCKS, (1, 2, 4, 6), (1, 3, 4, 7)), 5, 6, None),
    (_blocks(OWN_BLOCKS, (1, 3, 5, 7), (1, 3, 5, 7)), 6, 6, ("I",)),
    (_blocks(OWN_BLOCKS, (1, 2, 4, 6), (1, 2, 3, 6)), 5, 5, ("I", "II", "III", "IV", "IVt")),
    (_blocks(COMMON_BLOCKS, (1, 5), (1, 6)), 4, 5, None),
    (_blocks(COMMON_BLOCKS, (1, 3, 5), (1, 2, 6)), 4, 5, None),
    (_blocks(COMMON_BLOCKS, (1, 3, 5, 7), (1, 3, 5, 7)), 6, 6, None),
    (_blocks(COMMON_BLOCKS, (1, 2, 4, 6), (1, 3, 4, 7)), 5, 6, None),
    (_blocks(COMMON_BLOCKS, (1, 2, 4, 6), (1, 2, 4, 6)), 5, 5, ("I", "II", "III")),
    (_blocks(COMMON_BLOCKS, (1, 2, 4, 6), (1, 2, 4, 6)), 5, 5, ("IVt", "I")),
    (_blocks(GENERAL_BLOCKS, (1, 3), (1, 4), ((1,),)), 5, 5, None),
    (_blocks(GENERAL_BLOCKS, (1, 3, 5), (1, 3, 5), ((1, 2),)), 6, 6, None),
    (_blocks(GENERAL_BLOCKS, (1, 2, 4, 5), (1, 3, 4, 6), ((1, 3),)), 6, 7, None),
    (_blocks(GENERAL_BLOCKS, (1, 2, 3, 5), (1, 2, 4, 5), ((1,), (2, 3))), 5, 5, None),
]
ORACLE_IDS = [f"{m.family}-{R}x{C}-{'+'.join(t) if t else 'default'}-{k}"
              for k, (m, R, C, t) in enumerate(ORACLE_CASES)]


def balanced_minors(model, R, C):
    """Brute-force oracle: unsigned basic moves balanced on every model term."""
    term_rows = term_membership(model, R, C)
    out = set()
    for i1, i2 in combinations(range(1, R + 1), 2):
        for j1, j2 in combinations(range(1, C + 1), 2):
            entries = ((i1, j1, 1), (i1, j2, -1), (i2, j1, -1), (i2, j2, 1))
            if all(sum(c * row[(i - 1) * C + j - 1] for i, j, c in entries) == 0
                   for row in term_rows):
                out.add(entries)
    return out


def unsigned(basis):
    """Moves of a basis up to sign."""
    return {unsigned_key(mv.entries) for mv in basis}


@pytest.mark.parametrize("model,R,C,types", ORACLE_CASES, ids=ORACLE_IDS)
def test_basis_matches_the_loop_reference(model, R, C, types):
    basis = basis_for_model(model, R, C, types=types)
    got = {unsigned_key(mv.entries): mv.mtype for mv in basis}
    assert len(got) == len(basis)
    assert got == reference_unsigned(model, R, C, types)


def test_victoria_common_basis_counts():
    basis = basis_for_model(victoria_models()[0], 12, 12)
    assert basis.counts_by_type() == {"I": 1926, "II": 11664, "III": 17496,
                                      "IV": 150174, "IVt": 150174}
    assert len(basis) == 331434


def _store_digest(basis) -> str:
    """sha256 of the store's first four arrays (offsets, flat cell ids,
    coefficients, type codes) as int64 sequences: a narrower or wider dtype
    keeps it, any change of order or orientation does not."""
    h = hashlib.sha256()
    for a in basis.store[:4]:
        h.update(np.asarray(a).astype(np.int64).tobytes() + b"|")
    return h.hexdigest()[:16]


# (model, R, C, stored moves, digest): the moves stored in band
# configuration order (kernel by kernel, each configuration's band product
# in turn).  The first three are those of the earlier builder that
# deduplicated every candidate's key with one global sort; the others, of
# one-wide bands, unequal bands, one band per axis and a leftover band, are
# those of the streamed builder (``reference_moves.streamed_store``).
PINNED_STORES = {
    "victoria-common": (victoria_models()[0], 12, 12, 331434, "5d65026c5ab3b1be"),
    "victoria-own": (victoria_models()[1], 12, 12, 13590, "f9b4bc0bf66ce5cb"),
    "gilby": (gilby_model(), 8, 4, 81, "6a6a49595c1abdb9"),
    "own-twelve-1x1-blocks": (_blocks(OWN_BLOCKS, tuple(range(1, 14)), tuple(range(1, 14))),
                              12, 12, 167530, "0e60653131f4176d"),
    "common-9x10": (_blocks(COMMON_BLOCKS, (1, 3, 6, 10), (1, 4, 6, 11)), 9, 10, 48814,
                    "cf485d3a27f81d4e"),
    "independence-20x20": (ModelSpec(family=INDEPENDENCE), 20, 20, 36100, "de2eaf827693092c"),
    "general-6x7": (ORACLE_CASES[17][0], 6, 7, 875, "7a3c059c13450fa0"),
}


@pytest.mark.parametrize("name", PINNED_STORES)
def test_store_is_pinned(name):
    model, R, C, n_moves, digest = PINNED_STORES[name]
    basis = enumerate_basis(model, R, C)
    assert len(basis) == n_moves
    assert _store_digest(basis) == digest


# (model, R, C, [(kept draws, digest)] of the first three batches from
# random.Random(23)): the keys of the streamed builder's ``_keys``, on the
# benchmark's lazy grid (int16 codes) and on a grid above 6,553 cells
# (int32 codes)
PINNED_LAZY_BATCHES = {
    "lazy-grid": (_blocks(COMMON_BLOCKS, (1, 7, 13, 19, 25), (1, 7, 13, 19, 25)), 24, 24,
                  [(1022, "205ecc482751455a"), (1020, "3de89a12d36a2158"),
                   (1016, "37bc7265e5a3065c")]),
    "common-82x82": (_blocks(COMMON_BLOCKS, (1, 21, 41, 61, 83), (1, 21, 41, 61, 83)), 82, 82,
                     [(1024, "f0e9bc8c5324f86e"), (1024, "3d4c27b35dc1342c"),
                      (1023, "0d4a3a0ea8357314")]),
}


@pytest.mark.parametrize("name", PINNED_LAZY_BATCHES)
def test_lazy_batch_keys_are_pinned(name):
    model, R, C, batches = PINNED_LAZY_BATCHES[name]
    lazy, rng = LazyMoveBasis(model, R, C), random.Random(23)
    for n, digest in batches:
        keys, codes = lazy._batch(rng)
        assert keys.shape == (n, 8) and keys.dtype == (np.int16 if R * C < 6553 else np.int32)
        h = hashlib.sha256(str(keys.dtype).encode() + keys.tobytes() + b"|" + codes.tobytes())
        assert h.hexdigest()[:16] == digest


def _bounds(rng, n, limit, cover):
    """Block bounds 1 = b_1 < ... < b_{n+1}: b_{n+1} = limit + 1 if the
    blocks cover the axis, any of n + 1..limit + 1 if not."""
    end = limit + 1 if cover else int(rng.integers(n + 1, limit + 2))
    inner = sorted(int(b) for b in rng.choice(np.arange(2, end), n - 1, replace=False))
    return (1, *inner, end)


def _random_geometry(rng, family):
    """(model, R, C, types) of the family on a grid of 2..8 rows and
    columns: a chain of one to three rectangles, each grown from the last on
    any of its sides (so nested or stacked), or one to four blocks of random
    widths, leftover bands for general models, and a random type subset for
    a third of the block models."""
    R, C = (int(x) for x in rng.integers(2, 9, size=2))
    if family == INDEPENDENCE:
        return ModelSpec(family=family), R, C, None
    if family == CHANGE_POINT:
        cells = 0
        while not 2 <= cells < R * C:  # a rectangle of two cells or more, not the grid
            a1, a2 = sorted(int(x) for x in rng.integers(1, R + 1, size=2))
            b1, b2 = sorted(int(x) for x in rng.integers(1, C + 1, size=2))
            cells = (a2 - a1 + 1) * (b2 - b1 + 1)
        rects = [(a1, a2, b1, b2)]
        for _ in range(int(rng.integers(0, 3))):
            a1, a2, b1, b2 = rects[-1]
            grown = (a1 - int(rng.integers(0, a1)), a2 + int(rng.integers(0, R - a2 + 1)),
                     b1 - int(rng.integers(0, b1)), b2 + int(rng.integers(0, C - b2 + 1)))
            if grown != rects[-1] and grown != (1, R, 1, C):
                rects.append(grown)
        return ModelSpec(family=family, rectangles=tuple(Rectangle(*r) for r in rects)), R, C, None
    N = int(rng.integers(1, min(R, C, 4) + 1))
    general = family == GENERAL_BLOCKS
    groups = ()
    if general:
        blocks = [int(b) + 1 for b in rng.permutation(N)[:int(rng.integers(1, N + 1))]]
        cut = int(rng.integers(1, len(blocks) + 1))
        groups = tuple(g for g in (tuple(sorted(blocks[:cut])), tuple(sorted(blocks[cut:]))) if g)
    model = _blocks(family, _bounds(rng, N, R, not general), _bounds(rng, N, C, not general),
                    groups)
    types = None
    if rng.random() < 1 / 3:
        types = tuple(t for t in TYPE_NAMES if rng.random() < 0.5) or ("I",)
    return model, R, C, types


FAMILIES = (INDEPENDENCE, CHANGE_POINT, OWN_BLOCKS, COMMON_BLOCKS, GENERAL_BLOCKS)
_GEOMETRY_RNG = np.random.default_rng(2311)
RANDOM_GEOMETRIES = [_random_geometry(_GEOMETRY_RNG, FAMILIES[k % 5]) for k in range(40)]


def test_random_geometries_cover_the_band_shapes():
    blocks = [(m, R, C) for m, R, C, _ in RANDOM_GEOMETRIES if m.row_bounds]
    widths = [w for m, R, C in blocks for b in (m.row_bounds, m.col_bounds) for w in np.diff(b)]
    assert 1 in widths and len(set(widths)) > 2  # one-wide and unequal bands
    assert any(m.row_bounds[-1] <= R or m.col_bounds[-1] <= C for m, R, C in blocks)  # leftover
    assert any(len(m.rectangles) > 1 for m, *_ in RANDOM_GEOMETRIES)
    assert any(t and m.row_bounds for m, R, C, t in RANDOM_GEOMETRIES)
    assert {m.family for m, *_ in RANDOM_GEOMETRIES} == set(FAMILIES)


@pytest.mark.parametrize("model,R,C,types", RANDOM_GEOMETRIES,
                         ids=[f"{m.family}-{R}x{C}-{k}"
                              for k, (m, R, C, _) in enumerate(RANDOM_GEOMETRIES)])
def test_random_geometry_terms_match_the_cell_oracle(model, R, C, types):
    want = term_membership(model, R, C)
    assert terms(model, R, C).tolist() == want
    assert build_configuration(model, R, C).matrix[R + C:].tolist() == want


@pytest.mark.parametrize("model,R,C,types", RANDOM_GEOMETRIES,
                         ids=[f"{m.family}-{R}x{C}-{k}"
                              for k, (m, R, C, _) in enumerate(RANDOM_GEOMETRIES)])
def test_store_bytes_match_the_streamed_builder(model, R, C, types):
    basis = enumerate_basis(model, R, C, types)
    want = streamed_store(model, R, C, types)
    assert [(a.typecode, bytes(a)) for a in basis.store[:3]] == [
        (a.typecode, bytes(a)) for a in want[:3]]
    assert bytes(basis.store.tcode) == want[3]


def _dense(off, flat, coef, n_cells: int) -> np.ndarray:
    """The moves of a store's (offsets, flat cell ids, coefficients), one
    int64 row of cells per move."""
    off = np.asarray(off)
    dense = np.zeros((len(off) - 1, n_cells), dtype=np.int64)
    dense[np.repeat(np.arange(len(off) - 1), np.diff(off)), np.asarray(flat)] = coef
    return dense


@pytest.mark.parametrize("model,R,C,types", RANDOM_GEOMETRIES,
                         ids=[f"{m.family}-{R}x{C}-{k}"
                              for k, (m, R, C, _) in enumerate(RANDOM_GEOMETRIES)])
def test_every_move_lies_in_the_kernel(model, R, C, types):
    # A z = 0 for every enumerated move, in one integer product, and for
    # 300 lazy draws, each read from the sampler's store as it is drawn
    A = build_configuration(model, R, C).matrix.astype(np.int64)
    basis = enumerate_basis(model, R, C, types)
    assert not (_dense(*basis.store[:3], R * C) @ A.T).any()
    if not len(basis):
        return
    draw, store = LazyMoveBasis(model, R, C, types).sampler(random.Random(R * C))
    off, flat, coef = [0], [], []
    for _ in range(300):
        k = draw()
        flat += store.flat[store.off[k]:store.off[k + 1]]
        coef += store.coef[store.off[k]:store.off[k + 1]]
        off.append(len(flat))
    assert not (_dense(off, flat, coef, R * C) @ A.T).any()


@pytest.mark.parametrize("model,R,C,types", RANDOM_GEOMETRIES,
                         ids=[f"{m.family}-{R}x{C}-{k}"
                              for k, (m, R, C, _) in enumerate(RANDOM_GEOMETRIES)])
def test_lazy_basis_counts_and_draws_match_the_enumeration(model, R, C, types):
    basis = enumerate_basis(model, R, C, types)
    if not len(basis):
        with pytest.raises(ValueError, match="empty pattern space"):
            LazyMoveBasis(model, R, C, types)
        return
    lazy = LazyMoveBasis(model, R, C, types)
    assert lazy.counts_by_type() == basis.counts_by_type()
    stored = {unsigned_key(mv.entries): mv.mtype for mv in basis}
    rng = random.Random(R * 100 + C)
    draws = [random_move(lazy, rng) for _ in range(300)]
    assert [(unsigned_key(mv.entries), mv.mtype) for mv in draws if
            stored.get(unsigned_key(mv.entries)) != mv.mtype] == []


@pytest.mark.parametrize("k", sorted(_SORT))
def test_sorting_networks_sort_every_input(k):
    # by the 0-1 principle, a network that sorts every 0-1 input sorts all
    x = (np.arange(2 ** k) >> np.arange(k)[:, None]) & 1
    for p, q in _SORT[k]:
        x[p], x[q] = np.minimum(x[p], x[q]), np.maximum(x[p], x[q])
    assert (np.diff(x, axis=0) >= 0).all()


def test_store_dtypes_and_bytes():
    basis = enumerate_basis(gilby_model(), 8, 4)
    # 81 moves of four cells: int32 offsets, int16 cells, int8 coefficients,
    # one type byte per move and the int8 coefficients negated
    store = basis.store
    assert [a.typecode for a in store] == ["i", "h", "b", "B", "b"]
    assert basis.nbytes == 82 * 4 + 324 * 2 + 324 + 81 + 324
    # a sampler reads the store the build made whole, and changes nothing
    assert basis.sampler(random.Random(0))[1] is store
    assert basis.store is store and basis.nbytes == 82 * 4 + 324 * 2 + 324 + 81 + 324


def test_samplers_keep_the_negated_coefficients():
    basis = enumerate_basis(victoria_models()[1], 12, 12)
    store = basis.store
    assert np.array_equal(np.asarray(store.neg), -np.asarray(store.coef))
    assert basis.sampler(random.Random(1))[1] is store  # negated once, by the build
    # a lazy store is refilled in place, both signs with each batch
    draw, store = LazyMoveBasis(victoria_models()[0], 12, 12).sampler(random.Random(2))
    off, flat, coef, tcode, neg = store
    refills = 0
    while refills < 4:
        if draw() == 0:
            refills += 1
            assert len(neg) == len(coef) == off[-1] > 0 and len(tcode) == len(off) - 1
            assert np.array_equal(np.asarray(neg), -np.asarray(coef))


def test_build_memory_is_bounded_by_the_store():
    # each pass's kept tuples go straight into the store, so the build's
    # traced peak is the store plus one pass's arrays: 1.7x the store's
    # bytes when measured, against 7.5x for the builder that kept every
    # candidate's key until one global sort
    model = _blocks(COMMON_BLOCKS, (1, 3, 6, 10), (1, 4, 6, 11))
    enumerate_basis(model, 9, 10)  # imports of a first call stay out of the trace
    tracemalloc.start()
    try:
        basis = enumerate_basis(model, 9, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 48814
    assert peak < 3 * basis.nbytes


def test_lazy_build_memory_is_bounded_by_the_table():
    # each field of a kernel's table is joined, and its chunks dropped,
    # before the next, and the draw shares are formed in place: 1.4x the
    # table's bytes when measured (18.0 MB), against 2.0x for the build that
    # joined every field while all the chunks were alive
    bounds = tuple(range(1, 30, 2))  # fourteen 2x2 blocks
    model = _blocks(COMMON_BLOCKS, bounds, bounds)
    LazyMoveBasis(_blocks(COMMON_BLOCKS, (1, 3, 5), (1, 3, 5)), 4, 4)
    tracemalloc.start()
    try:
        lazy = LazyMoveBasis(model, 28, 28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = sum(a.nbytes for c in lazy._configs for a in c[1:])
    assert table > 15e6
    assert peak < 1.5 * table


def test_build_memory_with_many_narrow_bands_is_bounded_by_the_store():
    # twelve 1x1 own blocks: each band configuration holds one tuple, so
    # the 290,400 loop configurations are streamed a pass at a time, like
    # the tuples; 1.7x the store's bytes when measured
    bounds = tuple(range(1, 14))
    model = _blocks(OWN_BLOCKS, bounds, bounds)
    enumerate_basis(_blocks(OWN_BLOCKS, (1, 2, 3, 4), (1, 2, 3, 4)), 3, 3)
    tracemalloc.start()
    try:
        basis = enumerate_basis(model, 12, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 167530
    assert peak < 3 * basis.nbytes


def test_types_the_bands_rule_out_are_not_enumerated():
    # two blocks leave no third row or column band, so no move of Types
    # II-IV balances; the default build has no configuration of theirs and
    # stores exactly the Type I build
    model = _blocks(COMMON_BLOCKS, (1, 11, 21), (1, 11, 21))
    basis = enumerate_basis(model, 20, 20)
    assert len(basis) == 26100
    assert basis.store == enumerate_basis(model, 20, 20, types=("I",)).store


def test_move_accessors():
    mv = Move(((1, 1, 1), (1, 2, -1), (2, 1, -1), (2, 2, 1)), "I")
    assert mv.degree == 2
    flats, coefs = flats_coefs(mv, 2)
    assert flats == (0, 1, 2, 3) and coefs == (1, -1, -1, 1)
    assert mv.negated().entries == ((1, 1, -1), (1, 2, 1), (2, 1, 1), (2, 2, -1))
    assert format_move(mv) == "2 I  1,1:+1 1,2:-1 2,1:-1 2,2:+1"


def test_independence_basis_is_all_minors():
    model = ModelSpec(family=INDEPENDENCE)
    basis = enumerate_basis(model, 3, 4)
    assert len(basis) == 3 * 6  # C(3,2) * C(4,2) minors, one sign each
    cfg = build_configuration(model, 3, 4)
    assert all(is_kernel_move(cfg, mv) for mv in basis)


def test_change_point_basis_matches_strata_oracle():
    model = gilby_model()
    R, C = 8, 4
    basis = enumerate_basis(model, R, C)

    # independent re-derivation of the balance condition, cell by cell
    expect = set()
    for i1, i2 in combinations(range(1, R + 1), 2):
        for j1, j2 in combinations(range(1, C + 1), 2):
            a = cell_stratum(model, R, C, i1, j1)
            b = cell_stratum(model, R, C, i2, j2)
            c = cell_stratum(model, R, C, i1, j2)
            d = cell_stratum(model, R, C, i2, j1)
            if sorted((a, b)) == sorted((c, d)):
                expect.add(((i1, j1, 1), (i1, j2, -1), (i2, j1, -1), (i2, j2, 1)))
    got = unsigned(basis)
    assert got == {unsigned_key(e) for e in expect}
    assert len(basis) == len(expect) == 81

    cfg = build_configuration(model, R, C)
    for mv in basis:
        assert is_kernel_move(cfg, mv)
        assert mv.degree == 2 and mv.mtype == "I"


@pytest.mark.parametrize("model,R,C,types", ORACLE_CASES, ids=ORACLE_IDS)
def test_no_move_is_stored_in_both_signs(model, R, C, types):
    basis = basis_for_model(model, R, C, types=types)
    entries = {mv.entries for mv in basis}
    assert len(entries) == len(basis)
    for mv in basis:
        assert mv.entries[0][2] > 0  # the lowest cell carries the + sign
        assert mv.negated().entries not in entries


def test_random_move_draws_both_orientations():
    basis = enumerate_basis(gilby_model(), 8, 4)
    stored = {mv.entries for mv in basis}
    rng = random.Random(5)
    draws = [random_move(basis, rng).entries for _ in range(400)]
    flipped = [e for e in draws if e not in stored]
    assert flipped and len(flipped) < len(draws)
    assert all(Move(e, "I").negated().entries in stored for e in flipped)


@pytest.mark.parametrize("n", [1, 2, 3, 81, 2**19, 2**19 + 1, 331_434])
def test_enumerated_draws_equal_randrange(n):
    # a store of n empty moves: the sampler reads only the move count
    basis = MoveBasis(1, 1, _Store(array("i", bytes(4 * (n + 1))), array("h"), array("b"),
                                   array("B", bytes(n)), array("b")))
    rng, ref = random.Random(n), random.Random(n)
    draw, _ = basis.sampler(rng)
    assert [draw() for _ in range(10_000)] == [ref.randrange(n) for _ in range(10_000)]
    assert rng.getstate() == ref.getstate()


def test_unbalanced_minor_is_not_a_kernel_move():
    model = gilby_model()
    cfg = build_configuration(model, 8, 4)
    # corners (1,1),(1,2),(4,1),(4,2): strata (1,2),(2,2) are unbalanced
    bad = Move(((1, 1, 1), (1, 2, -1), (4, 1, -1), (4, 2, 1)), "I")
    assert not is_kernel_move(cfg, bad)
    assert bad.entries not in {mv.entries for mv in enumerate_basis(model, 8, 4)}


def test_change_point_models_take_type_i_only():
    model = gilby_model()
    assert unsigned(enumerate_basis(model, 8, 4, types=("I",))) == unsigned(
        enumerate_basis(model, 8, 4))
    for types in (("IV",), ("bogus",), ("I", "II")):
        for build in (enumerate_basis, basis_for_model, LazyMoveBasis):
            with pytest.raises(ModelError):
                build(model, 8, 4, types=types)


def test_unknown_block_types_are_a_model_error():
    with pytest.raises(ModelError, match="unknown move types"):
        basis_for_model(victoria_models()[0], 12, 12, types=("bogus",))


def test_block_type_i_matches_minor_oracle():
    own = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5, 7), col_bounds=(1, 3, 5, 7))
    basis = enumerate_basis(own, 6, 6, types=("I",))
    oracle = {unsigned_key(e) for e in balanced_minors(own, 6, 6)}
    assert unsigned(basis) == oracle


def test_own_blocks_types():
    own = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5, 7), col_bounds=(1, 3, 5, 7))
    basis = enumerate_basis(own, 6, 6)
    counts = basis.counts_by_type()
    assert set(counts) == {"I", "II"}
    cfg = build_configuration(own, 6, 6)
    degree_of = {"I": 2, "II": 3}
    for mv in basis:
        assert is_kernel_move(cfg, mv)
        assert mv.degree == degree_of[mv.mtype]


def test_own_two_blocks_has_no_type_ii():
    own = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5))
    counts = enumerate_basis(own, 4, 4).counts_by_type()
    assert set(counts) == {"I"}


def test_common_blocks_types_and_kernel():
    common = ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 3, 5, 7), col_bounds=(1, 3, 5, 7))
    basis = enumerate_basis(common, 6, 6)
    counts = basis.counts_by_type()
    assert set(counts) == {"I", "II", "III", "IV", "IVt"}
    cfg = build_configuration(common, 6, 6)
    degree_of = {"I": 2, "II": 3, "III": 3, "IV": 4, "IVt": 4}
    for mv in basis:
        assert is_kernel_move(cfg, mv)
        assert mv.degree == degree_of[mv.mtype]
    # index coincidences must produce doubled entries somewhere in Type IV
    assert any(
        any(abs(c) == 2 for _, _, c in mv.entries)
        for mv in basis if mv.mtype in ("IV", "IVt")
    )


def test_general_blocks_basis_builds_and_stays_in_kernel():
    model = ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 3, 5),
                      col_bounds=(1, 3, 5), groups=((1, 2),))
    basis = enumerate_basis(model, 6, 6)
    cfg = build_configuration(model, 6, 6)
    assert len(basis) > 0
    for mv in basis:
        assert is_kernel_move(cfg, mv)


def test_two_block_common_equals_own_basis():
    # same row space at N = 2, and indeed the same move set
    own = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5))
    common = ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5))
    assert unsigned(enumerate_basis(own, 4, 4)) == unsigned(enumerate_basis(common, 4, 4))


def test_basis_for_model_dispatch():
    assert basis_for_model(gilby_model(), 8, 4).kind == "enumerated"
    common, own = victoria_models()
    assert isinstance(basis_for_model(common, 12, 12), MoveBasis)
    assert isinstance(basis_for_model(own, 12, 12), MoveBasis)
    # the threshold is 400 cells: 20x20 is enumerated, 21x20 drawn lazily
    independence = ModelSpec(family=INDEPENDENCE)
    assert isinstance(basis_for_model(independence, 20, 20), MoveBasis)
    assert isinstance(basis_for_model(independence, 21, 20), LazyMoveBasis)


def test_random_move_covers_a_small_basis():
    model = ModelSpec(family=INDEPENDENCE)
    basis = basis_for_model(model, 2, 2)
    rng = random.Random(3)
    seen = {random_move(basis, rng).entries for _ in range(200)}
    assert seen == {mv.entries for mv in basis} | {mv.negated().entries for mv in basis}
    assert len(seen) == 2


def test_random_move_leaves_an_enumerated_basis_unchanged():
    basis = enumerate_basis(gilby_model(), 8, 4)
    before = dict(vars(basis))
    random_move(basis, random.Random(1))
    assert vars(basis) == before


def test_alternating_rngs_draw_what_each_draws_alone():
    # 24x24, four 6x6 common blocks: each rng's lazy batches are its own
    grid = _blocks(COMMON_BLOCKS, (1, 7, 13, 19, 25), (1, 7, 13, 19, 25))
    alone = []
    for seed in (1, 2):
        basis, rng = LazyMoveBasis(grid, 24, 24), random.Random(seed)
        alone.append([random_move(basis, rng).entries for _ in range(1500)])
    basis = LazyMoveBasis(grid, 24, 24)
    rngs = random.Random(1), random.Random(2)
    together = [[], []]
    for _ in range(1500):
        for k in (0, 1):
            together[k].append(random_move(basis, rngs[k]).entries)
    assert together == alone
    # the basis keeps a sampler per live rng, and no rng alive
    assert len(basis._samplers) == 2
    del rngs
    assert len(basis._samplers) == 0


# the common case draws Types I-IVt; the change-point case balances its
# rectangle terms; the own-blocks case draws Type II; the general case has a
# leftover band that Type IV's third and fourth columns may use; the
# two-block common case has too few bands for Types II-IVt, so it draws
# Type I alone
LAZY_CASES = [
    (_blocks(COMMON_BLOCKS, (1, 3, 5, 7), (1, 3, 5, 7)), 6, 6),
    (gilby_model(), 8, 4),
    (_blocks(OWN_BLOCKS, (1, 3, 5, 7), (1, 3, 5, 7)), 6, 6),
    (_blocks(GENERAL_BLOCKS, (1, 3, 5), (1, 3, 5), groups=((1, 2),)), 6, 6),
    (_blocks(COMMON_BLOCKS, (1, 4, 7), (1, 4, 7)), 6, 6),
]


@pytest.mark.parametrize("model,R,C", LAZY_CASES,
                         ids=["common-6x6", "gilby-8x4", "own-6x6", "general-leftover-6x6",
                              "common-two-blocks-6x6"])
def test_lazy_draws_agree_with_enumeration(model, R, C):
    # every draw is a move of the enumerated basis, every type is drawn, and
    # within each type the draws are uniform over its moves: a chi-square
    # over the per-move counts, one type at a time
    basis = basis_for_model(model, R, C)
    counts = {mv.entries: 0 for mv in basis}
    type_of = {mv.entries: mv.mtype for mv in basis}
    lazy = LazyMoveBasis(model, R, C)
    cfg = build_configuration(model, R, C)
    rng = random.Random(11)
    for _ in range(100_000):
        mv = random_move(lazy, rng)
        stored = mv if mv.entries[0][2] > 0 else mv.negated()  # the stored sign
        assert stored.entries in counts
        counts[stored.entries] += 1
        assert type_of[stored.entries] == mv.mtype
    assert all(is_kernel_move(cfg, Move(e, type_of[e])) for e, n in counts.items() if n)
    for t in basis.counts_by_type():
        per_move = [n for e, n in counts.items() if type_of[e] == t]
        assert sum(per_move) > 0, t
        assert chisquare(per_move).pvalue > 1e-3, t


@pytest.mark.parametrize("model,R,C,types", ORACLE_CASES, ids=ORACLE_IDS)
def test_lazy_counts_match_enumeration(model, R, C, types):
    lazy = LazyMoveBasis(model, R, C, types)
    assert lazy.counts_by_type() == enumerate_basis(model, R, C, types).counts_by_type()


def test_lazy_counts_of_victoria_and_a_grid_too_large_to_enumerate():
    for model in victoria_models():
        assert (LazyMoveBasis(model, 12, 12).counts_by_type()
                == enumerate_basis(model, 12, 12).counts_by_type())
    # 24x24, four 6x6 common blocks: the benchmark's lazy grid
    grid = _blocks(COMMON_BLOCKS, (1, 7, 13, 19, 25), (1, 7, 13, 19, 25))
    assert LazyMoveBasis(grid, 24, 24).counts_by_type() == {
        "I": 37296, "II": 746496, "III": 1119744, "IV": 39797568, "IVt": 39797568}


def test_lazy_type_i_draws_are_all_kept():
    # one band per axis: Type I draws its two rows, and its two columns, as
    # ordered pairs of one band, so no draw repeats a move
    lazy = LazyMoveBasis(ModelSpec(family=INDEPENDENCE), 21, 20)
    keys, codes = lazy._batch(random.Random(0))
    assert len(codes) == len(keys) == 1024


def test_lazy_basis_refuses_more_band_configurations_than_it_holds():
    # fifteen own blocks: C(15, 3) * P(15, 3) = 1,242,150 loop configurations
    bounds = tuple(range(1, 32, 2))
    with pytest.raises(ModelError, match="band configurations"):
        LazyMoveBasis(_blocks(OWN_BLOCKS, bounds, bounds), 30, 30)
    assert set(LazyMoveBasis(_blocks(OWN_BLOCKS, bounds, bounds), 30, 30,
                             types=("I",)).counts_by_type()) == {"I"}


def test_lazy_one_block_draws_are_kernel_moves():
    # 441 cells: above the enumeration threshold, and no Type IV block pair
    model = _blocks(COMMON_BLOCKS, (1, 22), (1, 22))
    lazy = basis_for_model(model, 21, 21)
    assert isinstance(lazy, LazyMoveBasis)
    cfg = build_configuration(model, 21, 21)
    rng = random.Random(2)
    for _ in range(50):
        mv = random_move(lazy, rng)
        assert mv.mtype in ("I", "II", "III") and is_kernel_move(cfg, mv)


def test_lazy_types_the_bands_rule_out_are_an_empty_pattern_space():
    # one block: a Type II loop needs three row and three column bands
    model = _blocks(COMMON_BLOCKS, (1, 22), (1, 22))
    with pytest.raises(ValueError, match="empty pattern space"):
        basis_for_model(model, 21, 21, types=("II",))


def test_lazy_one_block_draws_agree_with_enumeration():
    model = _blocks(COMMON_BLOCKS, (1, 5), (1, 5))
    basis = enumerate_basis(model, 4, 4)
    enumerated = {mv.entries for mv in basis} | {mv.negated().entries for mv in basis}
    lazy = LazyMoveBasis(model, 4, 4)
    rng = random.Random(4)
    draws = {random_move(lazy, rng).entries for _ in range(600)}
    assert draws == enumerated


def _type_rule_models():
    """Own, common and general blocks with N = 2-4 (a first block of two
    rows and columns, then blocks of one), general blocks with and without
    a leftover band, under five groupings."""
    out = []
    for N in (2, 3, 4):
        bounds = (1, 3) + tuple(range(4, N + 3))
        for family in (OWN_BLOCKS, COMMON_BLOCKS):
            out.append((_blocks(family, bounds, bounds), N + 1))
        groupings = {((1,),), tuple((n,) for n in range(1, N + 1)),
                     (tuple(range(1, N + 1)),), ((1, 2),), ((1,), (2,))}
        for groups in sorted(groupings):
            for R in (N + 1, N + 2):
                out.append((_blocks(GENERAL_BLOCKS, bounds, bounds, groups), R))
    return out


TYPE_RULE_CASES = _type_rule_models()


@pytest.mark.parametrize(
    "model,R", TYPE_RULE_CASES,
    ids=[f"{m.family}-N{len(m.row_bounds) - 1}-{R}x{R}-{m.groups}" for m, R in TYPE_RULE_CASES])
def test_lazy_weights_match_enumeration(model, R):
    # a type gets lazy draws exactly when the loop reference has moves of
    # it (enumeration draws on the same band configurations, so it is no
    # independent check); with groups ((1,),), blocks 2.. lie in no term,
    # and they do carry Type III and IV moves between them
    for t in TYPE_NAMES:
        has_moves = len(reference_unsigned(model, R, R, (t,))) > 0
        assert (len(enumerate_basis(model, R, R, types=(t,))) > 0) == has_moves, t
        try:
            LazyMoveBasis(model, R, R, types=(t,))
            weighted = True
        except ValueError:
            weighted = False
        assert has_moves == weighted, t


def test_lazy_type_without_moves_is_refused_not_drawn():
    # own blocks: each diagonal block is its own term, so the +1 and -1
    # diagonal cells of a Type III loop never balance
    model = _blocks(OWN_BLOCKS, (1, 8, 15, 22), (1, 8, 15, 22))
    with pytest.raises(ValueError, match="empty pattern space"):
        LazyMoveBasis(model, 21, 21, types=("III",))
    lazy = LazyMoveBasis(model, 21, 21, types=("I", "III"))
    rng = random.Random(1)
    assert {random_move(lazy, rng).mtype for _ in range(200)} == {"I"}


def test_dump_moves_format():
    basis = enumerate_basis(ModelSpec(family=INDEPENDENCE), 2, 2)
    buf = io.StringIO()
    dump_moves(basis, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == len(basis)
    assert lines[0] == "2 I  1,1:+1 1,2:-1 2,1:-1 2,2:+1"
    for line in lines:
        degree, mtype, rest = line.split(None, 2)
        assert int(degree) >= 2 and mtype in ("I", "II", "III", "IV", "IVt")
        for chunk in rest.split():
            cell, coef = chunk.split(":")
            i, j = cell.split(",")
            assert int(i) >= 1 and int(j) >= 1 and int(coef) != 0

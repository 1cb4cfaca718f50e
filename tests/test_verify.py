"""Exhaustive sweeps: connectivity, indispensability, and the suite drivers."""

import itertools
import math
import tracemalloc
from array import array

import numpy as np
import pytest

from markovfiber.datasets import gilby_model, victoria_models
from markovfiber.fiber import FiberOverflow, UnionFind, enumerate_fiber, is_connected
from markovfiber.models import (
    CHANGE_POINT,
    COMMON_BLOCKS,
    INDEPENDENCE,
    OWN_BLOCKS,
    ModelSpec,
    build_configuration,
)
from markovfiber.moves import MoveBasis, _Store, basis_for_model, enumerate_basis, format_move
from markovfiber.tables import Rectangle
from markovfiber.verify import (
    COMMON_SUITE_GEOMETRIES,
    OWN_SUITE_GEOMETRIES,
    UNIVERSE_BYTES,
    _components,
    _fiber_ids,
    _indispensability,
    _indispensable,
    _universe,
    _universe_size,
    _Universes,
    change_point_models,
    change_point_suite,
    common_blocks_suite,
    connectivity_range,
    connectivity_sweep,
    indispensability_sweep,
    own_blocks_suite,
)
from reference_verify import indispensable, reference_sweep
from test_moves import RANDOM_GEOMETRIES

OWN_3X3 = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 2, 3, 4),
                    col_bounds=(1, 2, 3, 4))


def test_sweep_enumerates_every_table():
    rep = connectivity_sweep(ModelSpec(family=INDEPENDENCE), 2, 2, total=3)
    assert rep.n_tables == math.comb(4 + 3 - 1, 3)  # multisets of 4 cells


@pytest.mark.parametrize("R,C,total", [(2, 2, 0), (2, 3, 1), (2, 3, 3), (3, 3, 4)])
def test_universe_is_every_table_in_byte_order(R, C, total):
    tables, view = _universe(R, C, total)
    expected = sorted(t for t in itertools.product(range(total + 1), repeat=R * C)
                      if sum(t) == total)
    assert [tuple(row) for row in tables.tolist()] == expected
    assert view.size == len(expected)


def test_independence_sweep_is_connected():
    rep = connectivity_sweep(ModelSpec(family=INDEPENDENCE), 3, 3, total=3)
    assert rep.n_tables == math.comb(9 + 3 - 1, 3)
    assert rep.ok and rep.n_disconnected == 0 and not rep.witnesses
    assert 0 < rep.n_multi <= rep.n_fibers < rep.n_tables
    assert rep.cross_checks == 2  # fibers re-enumerated with the DFS oracle
    d = rep.to_dict()
    assert d["connected"] is True and d["witnesses"] == []


def test_cross_checks_run_on_request():
    model = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2),))
    rep = connectivity_sweep(model, 3, 3, total=4, cross_check=5, seed=3)
    assert rep.ok
    assert rep.cross_checks == min(5, rep.n_multi) > 0


def test_connectivity_range_covers_totals():
    model = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2),))
    reps = connectivity_range(model, 3, 3, max_total=4)
    assert [r.total for r in reps] == [2, 3, 4]
    assert all(r.ok for r in reps)


def test_minor_moves_alone_disconnect_three_blocks():
    rep = connectivity_sweep(OWN_3X3, 3, 3, total=3, types=("I",),
                             cross_check=0)
    assert rep.n_disconnected >= 1 and rep.witnesses
    w = rep.witnesses[0]
    assert w.size >= 2 and w.n_components >= 2
    a, b = w.members
    assert a != b and sum(a) == sum(b) == 3
    cfg = build_configuration(OWN_3X3, 3, 3)
    A = np.asarray(cfg.matrix, dtype=int)
    assert tuple(A @ np.array(a)) == tuple(A @ np.array(b)) == w.t
    # the DFS oracle agrees that the restricted basis fails here
    fib = enumerate_fiber(w.t, cfg)
    assert a in fib.members and b in fib.members
    restricted = basis_for_model(OWN_3X3, 3, 3, types=("I",))
    assert not is_connected(fib, restricted)
    assert is_connected(fib, basis_for_model(OWN_3X3, 3, 3))


def test_full_basis_reconnects_three_blocks():
    rep = connectivity_sweep(OWN_3X3, 3, 3, total=3)
    assert rep.ok


def test_indispensability_sweep_change_point():
    model = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2),))
    rep = indispensability_sweep(model, 3, 3)
    assert rep.ok
    assert rep.n_moves == len(basis_for_model(model, 3, 3)) == 5
    assert rep.to_dict()["all_indispensable"] is True


def _oracle_verdicts(cfg, basis):
    """The depth-first verdict of every move, and the lookup's."""
    return ([indispensable(mv, cfg) for mv in basis],
            _indispensable(_Universes(), cfg, basis).tolist())


def test_indispensable_matches_the_dfs_oracle_on_change_point_models():
    # every raw model up to 3x3, so every class of change_point_suite(max_dim=3)
    for R, C in itertools.product((2, 3), repeat=2):
        for model in change_point_models(R, C):
            oracle, mine = _oracle_verdicts(build_configuration(model, R, C),
                                            basis_for_model(model, R, C))
            assert mine == oracle, (R, C, model)


@pytest.mark.parametrize("model,R,C", [
    (gilby_model(), 8, 4),
    (OWN_3X3, 3, 3),  # a single Type II move, of degree 3
    (ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 2, 3, 5), col_bounds=(1, 2, 3, 5)), 4, 4),
    # dispensable moves of degrees 3 and 4 beside indispensable ones
    (ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 2, 3, 4), col_bounds=(1, 2, 3, 4)), 3, 3),
    (ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 2, 3, 5), col_bounds=(1, 2, 3, 5)), 4, 4),
], ids=["gilby", "own-3x3", "own-4x4", "common-3x3", "common-4x4"])
def test_indispensable_matches_the_dfs_oracle_on_block_bases(model, R, C):
    cfg, basis = build_configuration(model, R, C), basis_for_model(model, R, C)
    oracle, mine = _oracle_verdicts(cfg, basis)
    assert mine == oracle
    # failures are reported in basis order
    assert indispensability_sweep(model, R, C).failures == tuple(
        format_move(mv) for mv, ok in zip(basis, oracle) if not ok)


def _hand_basis(R, C, *moves):
    off, flat, coef = array("i", [0]), array("h"), array("b")
    for cells in moves:
        for f, c in cells:
            flat.append(f)
            coef.append(c)
        off.append(len(flat))
    return MoveBasis(R, C, _Store(off, flat, coef, array("B", bytes(len(moves))),
                                  array("b", [-c for c in coef])))


def test_negative_controls_are_not_indispensable():
    cfg = build_configuration(ModelSpec(family=INDEPENDENCE), 3, 3)
    basis = _hand_basis(
        3, 3,
        # the degree-3 cycle: z+ has unit margins, so its fiber holds all six
        # permutation matrices
        ((0, 1), (1, -1), (4, 1), (5, -1), (6, -1), (8, 1)),
        # not a move: z+ = e11 + e22 has the two-member fiber {z+, e12 + e21},
        # but z- = e12 + e13 lies outside it
        ((0, 1), (1, -1), (2, -1), (4, 1)),
        # not a move: |z-| = 2 != |z+| = 1
        ((0, 1), (1, -2)),
    )
    oracle, mine = _oracle_verdicts(cfg, basis)
    assert oracle == mine == [False, False, False]
    assert _indispensability(_Universes(), cfg, basis).failures == tuple(
        format_move(mv) for mv in basis)


def test_change_point_model_enumeration():
    singles = list(change_point_models(3, 3, max_rects=1))
    # 36 rectangles on a 3x3 grid, minus 9 single cells, minus the full grid
    assert len(singles) == 26
    assert all(len(m.rectangles) == 1 for m in singles)
    both = list(change_point_models(3, 3, max_rects=2))
    assert len(both) > len(singles)
    for m in both[len(singles):]:
        inner, outer = m.rectangles
        assert outer.contains_rect(inner) and inner != outer
        assert outer.n_cells < 9  # outermost leaves room


def test_change_point_suite_small_scale():
    rep = change_point_suite(max_dim=3, max_total=3)
    assert rep.ok
    assert not rep.connectivity_failures and not rep.indispensability_failures
    # one class per rectangle-shape chain, up to transposing the grid
    assert rep.models_raw == 148 and rep.models_checked == 18
    assert rep.raw_spot_checks == 8  # two per grid: 2x2, 2x3, 3x2, 3x3
    assert rep.n_fibers_checked > 0
    d = rep.to_dict()
    assert d["suite"] == "change-point" and d["ok"] is True


def test_change_point_suite_builds_each_model_once(monkeypatch):
    import markovfiber.verify as verify

    bases, configs = [], []
    real_basis, real_cfg = verify.enumerate_basis, verify.build_configuration

    def counted_basis(*args, **kwargs):
        bases.append(args[:3])
        return real_basis(*args, **kwargs)

    def counted_cfg(*args, **kwargs):
        configs.append(args[:3])
        return real_cfg(*args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_basis", counted_basis)
    monkeypatch.setattr(verify, "build_configuration", counted_cfg)
    rep = change_point_suite(max_dim=3, max_total=3)
    # one basis and one configuration for all totals and the
    # indispensability check of each checked model
    n_models = rep.models_checked + rep.raw_spot_checks
    assert len(bases) == len(configs) == n_models


def test_universe_bytes_are_predicted_before_anything_is_built(monkeypatch):
    import markovfiber.verify as verify

    assert _universe_size(3, 3, 4) == _universe(3, 3, 4)[0].shape[0] == 495
    # the largest universe a suite builds, 6x6 at total 5, is well inside
    assert _universe_size(6, 6, 5) * (36 + 2 * 5) < UNIVERSE_BYTES // 8

    def unguarded(*args):
        raise AssertionError("a table universe was built")

    monkeypatch.setattr(verify, "combinations_with_replacement", unguarded)
    # Victoria at total 4: 19 million 12x12 tables, about 2.7 GB
    with pytest.raises(FiberOverflow, match="12x12 tables of total 4"):
        connectivity_sweep(victoria_models()[0], 12, 12, total=4)


def test_indispensability_enumerates_no_fiber(monkeypatch):
    import markovfiber.fiber as fiber
    import markovfiber.verify as verify

    enumerated, sweeps = [], []
    real_enumerate, real_sweep = fiber.enumerate_fiber, verify._sweep

    def counted_enumerate(*args, **kwargs):
        enumerated.append(args[0])
        return real_enumerate(*args, **kwargs)

    def recorded_sweep(*args, **kwargs):
        sweeps.append(real_sweep(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(fiber, "enumerate_fiber", counted_enumerate)
    monkeypatch.setattr(verify, "enumerate_fiber", counted_enumerate)
    monkeypatch.setattr(verify, "_sweep", recorded_sweep)
    change_point_suite(max_dim=3, max_total=3)
    # only the sweeps' cross-checks: one per sweep with a multi-member fiber
    assert len(enumerated) == sum(rep.n_multi > 0 for rep in sweeps) > 0


def test_sweep_memory_is_bounded_by_the_store():
    # at total 2 only the 1,926 Type I moves of Victoria's common-blocks
    # basis act, and only moves that act are made dense or listed for the
    # cross-checks: the traced peak is the build's, 1.7x the store's bytes
    # when measured, against 12.6x when all 331,434 moves were
    model = victoria_models()[0]
    basis = enumerate_basis(model, 12, 12)
    connectivity_range(ModelSpec(family=INDEPENDENCE), 2, 2, max_total=2)  # first-call imports
    tracemalloc.start()
    try:
        reports = connectivity_range(model, 12, 12, max_total=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * basis.nbytes
    assert [rep.to_dict() for rep in reports] == [{
        "grid": [12, 12], "total": 2, "n_tables": 10440, "n_fibers": 8514,
        "n_multi_member_fibers": 1926, "n_disconnected": 0, "connected": True,
        "witnesses": [], "cross_checks": 2}]


@pytest.mark.parametrize("model,R,C", [g[:3] for g in RANDOM_GEOMETRIES],
                         ids=[f"{m.family}-{R}x{C}-{k}"
                              for k, (m, R, C, _) in enumerate(RANDOM_GEOMETRIES)])
def test_random_geometries_connect_every_small_fiber(model, R, C):
    # the full basis of every family, general blocks with leftover bands
    # included, connects every fiber of totals 2-3, and of total 4 on grids
    # of up to 16 cells (a geometry's type restriction is dropped: a
    # restricted basis may rightly disconnect); each sweep cross-checks two
    # fibers against the depth-first oracle
    reports = connectivity_range(model, R, C, max_total=4 if R * C <= 16 else 3)
    assert [rep.total for rep in reports if not rep.ok] == []


def test_sweeps_refuse_grids_above_the_enumeration_threshold():
    # 420 cells: a sweep needs every move, and such a grid is drawn lazily
    model = ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 11, 22),
                      col_bounds=(1, 11, 21))
    for sweep in (lambda: connectivity_sweep(model, 21, 20, total=2),
                  lambda: connectivity_range(model, 21, 20, max_total=2),
                  lambda: indispensability_sweep(model, 21, 20)):
        with pytest.raises(ValueError, match="enumeration threshold"):
            sweep()


def test_own_blocks_suite_small_scale():
    rep = own_blocks_suite(max_total=3)
    assert rep.ok
    assert rep.models_checked == 8
    assert len(rep.witnesses) >= 1  # Type I alone already fails at total 3
    assert "types=I" in rep.witnesses[0]


def test_common_blocks_suite_small_scale():
    rep = common_blocks_suite(max_total=2)
    assert rep.ok
    assert rep.models_checked == 5
    assert rep.n_fibers_checked > 0


# Every suite geometry, full and reduced types, against the mask-loop sweep,
# at totals 2-5.  On the 6x6 grids only the reduced three-block bases go on
# to total 5, where their disconnected fibers and witnesses are; the other
# four 6x6 sweeps at total 5 are connected and would cost the reference
# about 36 s more on a 2-vCPU machine.
SWEEP_ORACLE_CASES = [
    (family, (R, C, rb, cb), types,
     5 if (R, C) != (6, 6) or (types and len(rb) == 4) else 4)
    for family, geometries, reduced in (
        (OWN_BLOCKS, OWN_SUITE_GEOMETRIES, ("I",)),
        (COMMON_BLOCKS, COMMON_SUITE_GEOMETRIES, ("I", "II", "III")))
    for R, C, rb, cb in geometries
    for types in (None, reduced)
]


@pytest.mark.parametrize("family,geometry,types,max_total", SWEEP_ORACLE_CASES)
def test_sweep_matches_mask_loop_reference(family, geometry, types, max_total):
    R, C, rb, cb = geometry
    model = ModelSpec(family=family, row_bounds=rb, col_bounds=cb)
    basis = basis_for_model(model, R, C, types=types)
    reports = connectivity_range(model, R, C, max_total, types=types)
    for rep in reports:
        ref = reference_sweep(model, R, C, rep.total, basis=basis,
                              seed=rep.total)
        assert rep == ref  # witnesses included


CHANGE_POINT_4X4 = [
    (Rectangle(1, 2, 1, 2),),
    (Rectangle(1, 1, 1, 3),),
    (Rectangle(2, 3, 2, 4),),
    (Rectangle(1, 2, 1, 2), Rectangle(1, 3, 1, 3)),
    (Rectangle(2, 3, 2, 3), Rectangle(2, 4, 1, 3)),
]


@pytest.mark.parametrize("rects", CHANGE_POINT_4X4)
def test_change_point_sweeps_match_reference(rects):
    model = ModelSpec(family=CHANGE_POINT, rectangles=rects)
    for rep in connectivity_range(model, 4, 4, max_total=5):
        assert rep == reference_sweep(model, 4, 4, rep.total, seed=rep.total)


def _union_find_labels(n, u, v):
    uf = UnionFind(n)
    for a, b in zip(u.tolist(), v.tolist()):
        uf.union(a, b)
    roots = [uf.find(i) for i in range(n)]
    smallest = {}
    for i, r in enumerate(roots):
        smallest.setdefault(r, i)
    return np.array([smallest[r] for r in roots])


@pytest.mark.parametrize("n,m,seed", [(1, 0, 0), (5, 0, 1), (50, 30, 2),
                                      (200, 150, 3), (1000, 2000, 4)])
def test_components_match_union_find(n, m, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    # the label is the smallest node of the component, as union-find says
    assert (_components(n, u, v) == _union_find_labels(n, u, v)).all()


def _shuffled_path(nodes, rng):
    order = rng.permutation(nodes)
    u, v = order[:-1], order[1:]
    flip = rng.random(u.size) < 0.5
    return np.where(flip, v, u), np.where(flip, u, v)


def test_components_on_a_long_shuffled_path():
    n = 200_000
    rng = np.random.default_rng(0)
    u, v = _shuffled_path(np.arange(n), rng)
    assert (_components(n, u, v) == 0).all()
    # two paths: every node is labelled with the smallest node of its own
    half = n // 2
    a, b = _shuffled_path(np.arange(half), rng)
    c, d = _shuffled_path(np.arange(half, n), rng)
    label = _components(n, np.concatenate([a, c]), np.concatenate([b, d]))
    assert (label == np.where(np.arange(n) < half, 0, half)).all()


def test_fiber_ids_fall_back_to_rows_beyond_62_bits():
    rng = np.random.default_rng(5)
    t_all = rng.integers(0, 4, size=(300, 8)).astype(np.uint8)
    _, expected = np.unique(t_all, axis=0, return_inverse=True)
    assert (_fiber_ids(t_all, 3) == expected.ravel()).all()   # 4**8 keys
    wide = np.tile(t_all, 4)                                # 4**32 = 2**64
    _, expected = np.unique(wide, axis=0, return_inverse=True)
    assert (_fiber_ids(wide, 3) == expected.ravel()).all()

"""Fiber enumeration against a product-space oracle, plus the fiber questions."""

from itertools import product

import numpy as np
import pytest

from markovfiber.fiber import (
    Fiber,
    FiberOverflow,
    UnionFind,
    enumerate_fiber,
    exact_pvalue,
    fiber_pvalue,
    is_connected,
)
from markovfiber.models import (
    CHANGE_POINT,
    INDEPENDENCE,
    OWN_BLOCKS,
    ModelSpec,
    build_configuration,
)
from markovfiber.moves import LazyMoveBasis, Move, basis_for_model, enumerate_basis
from markovfiber.tables import Rectangle, Table, sufficient_statistic
from markovfiber.datasets import gilby_model, gilby_table
from markovfiber.fit import make_tracker
from reference_verify import indispensable


def oracle_fiber(t, cfg):
    """Filter the full product space; exponential, fine for tiny totals."""
    total = int(sum(t[: cfg.R]))
    A = cfg.matrix.astype(np.int64)
    out = []
    for cells in product(range(total + 1), repeat=cfg.R * cfg.C):
        if sum(cells) != total:
            continue
        if (A @ np.asarray(cells, dtype=np.int64) == t).all():
            out.append(cells)
    return sorted(out)


def stat_of(model, table):
    cfg = build_configuration(model, table.R, table.C)
    return sufficient_statistic(table, cfg), cfg


CASES = [
    (ModelSpec(family=INDEPENDENCE), [[1, 0], [0, 1]]),
    (ModelSpec(family=INDEPENDENCE), [[2, 0], [0, 1]]),
    (ModelSpec(family=INDEPENDENCE), [[1, 0, 1], [0, 1, 0], [1, 0, 1]]),
    (ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),)),
     [[1, 0, 1], [1, 1, 0], [0, 1, 1]]),
    (ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 2, 3, 4), col_bounds=(1, 2, 3, 4)),
     [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
]


@pytest.mark.parametrize("model,rows", CASES)
def test_enumeration_matches_product_oracle(model, rows):
    table = Table.from_rows(rows)
    t, cfg = stat_of(model, table)
    fib = enumerate_fiber(t, cfg)
    assert not fib.overflowed
    assert list(fib.members) == oracle_fiber(t, cfg)
    assert table.vec().tolist() in [list(m) for m in fib.members]


def test_empty_fiber():
    model = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),))
    cfg = build_configuration(model, 3, 3)
    # subtable sum 2 exceeds the column-1 total of 1: no table fits
    fib = enumerate_fiber((1, 1, 0, 1, 1, 0, 2), cfg)
    assert len(fib) == 0 and not fib.overflowed


def test_statistic_validation():
    cfg = build_configuration(ModelSpec(family=INDEPENDENCE), 2, 2)
    with pytest.raises(ValueError):
        enumerate_fiber((1, 1, 1), cfg)
    with pytest.raises(ValueError):
        enumerate_fiber((1, 1, 1, 2), cfg)  # row total 2, column total 3


def test_member_cap_marks_overflow():
    table = Table.from_rows([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    t, cfg = stat_of(ModelSpec(family=INDEPENDENCE), table)
    full = enumerate_fiber(t, cfg)
    assert len(full) == 11
    clipped = enumerate_fiber(t, cfg, cap=3)
    assert clipped.overflowed
    assert len(clipped) <= 3


@pytest.mark.parametrize("cap", [0, -1])
def test_a_cap_below_one_is_refused(cap):
    table = Table.from_rows([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
    t, cfg = stat_of(ModelSpec(family=INDEPENDENCE), table)
    with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}"):
        enumerate_fiber(t, cfg, cap=cap)


def test_node_budget_bounds_dead_branches():
    table = gilby_table()
    t, cfg = stat_of(gilby_model(), table)
    # the budget of 50 * cap + 10000 = 60,000 nodes ends the search before
    # the depth-first descent reaches a single member
    fib = enumerate_fiber(t, cfg, cap=1000)
    assert fib.overflowed and len(fib) == 0


def test_union_find():
    uf = UnionFind(4)
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.n_components == 3
    uf.union(2, 3)
    uf.union(0, 3)
    assert uf.n_components == 1
    assert uf.find(2) == uf.find(1)


def test_connectivity_under_restricted_and_full_bases():
    model = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 2, 3, 4), col_bounds=(1, 2, 3, 4))
    table = Table.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    t, cfg = stat_of(model, table)
    fib = enumerate_fiber(t, cfg)
    assert len(fib) == 2  # the two off-diagonal 3-cycles

    assert not is_connected(fib, enumerate_basis(model, 3, 3, types=("I",)))
    assert is_connected(fib, enumerate_basis(model, 3, 3))


def test_connectivity_needs_an_enumerated_basis():
    model = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 2, 3, 4), col_bounds=(1, 2, 3, 4))
    t, cfg = stat_of(model, Table.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    fib = enumerate_fiber(t, cfg)
    lazy = LazyMoveBasis(model, 3, 3)
    with pytest.raises(ValueError, match="enumerated basis"):
        is_connected(fib, lazy)


def test_singleton_and_empty_fibers_count_as_connected():
    cfg = build_configuration(ModelSpec(family=INDEPENDENCE), 2, 2)
    basis = basis_for_model(ModelSpec(family=INDEPENDENCE), 2, 2)
    single = enumerate_fiber((2, 0, 2, 0), cfg)
    assert len(single) == 1
    assert is_connected(single, basis)
    empty = Fiber(members=())
    assert is_connected(empty, basis)


def test_a_capped_fiber_is_refused():
    model = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 2, 3, 4), col_bounds=(1, 2, 3, 4))
    table = Table.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    t, cfg = stat_of(model, table)
    # the full fiber has two members, which Type I alone leaves apart; one
    # member alone would read as a connected fiber
    capped = enumerate_fiber(t, cfg, cap=1)
    assert capped.overflowed and len(capped) == 1
    with pytest.raises(FiberOverflow, match="cap 1"):
        is_connected(capped, enumerate_basis(model, 3, 3, types=("I",)))
    with pytest.raises(FiberOverflow, match="cap 1"):
        fiber_pvalue(capped, table, lambda arr: 0.0)


def test_every_gilby_basic_move_is_indispensable_spot_check():
    model = gilby_model()
    cfg = build_configuration(model, 8, 4)
    basis = basis_for_model(model, 8, 4)
    for mv in list(basis)[:20]:
        assert indispensable(mv, cfg)


def test_degree_three_cycle_is_dispensable_under_independence():
    cfg = build_configuration(ModelSpec(family=INDEPENDENCE), 3, 3)
    z = Move(((1, 1, 1), (1, 2, -1), (2, 2, 1), (2, 3, -1), (3, 3, 1), (3, 1, -1)), "II")
    # its positive part has unit margins; the fiber is all six permutation
    # matrices, not just the pair {z+, z-}
    assert not indispensable(z, cfg)


def test_exact_pvalue_by_hand():
    table = Table.from_rows([[2, 0], [0, 1]])
    cfg = build_configuration(ModelSpec(family=INDEPENDENCE), 2, 2)
    # fiber: [[2,0],[0,1]] weight 1/2, [[1,1],[1,0]] weight 1
    p = exact_pvalue(table, cfg, lambda arr: float(arr[0, 0]))
    assert p == pytest.approx((1 / 2) / (3 / 2))
    p_low = exact_pvalue(Table.from_rows([[1, 1], [1, 0]]), cfg,
                         lambda arr: float(arr[0, 0]))
    assert p_low == pytest.approx(1.0)


def test_exact_pvalue_overflow_raises():
    table = gilby_table()
    cfg = build_configuration(gilby_model(), 8, 4)
    with pytest.raises(FiberOverflow):
        exact_pvalue(table, cfg, lambda arr: 0.0, cap=100)


# (table, statistic, null model, alternative, exact p-value), pinned to the
# last bit: how the oracle reads a statistic must not move the p-value
PINNED = [
    ([[3, 0, 1, 1], [0, 2, 1, 0], [1, 1, 0, 2]], "chi2", ModelSpec(family=INDEPENDENCE),
     None, 0.2402597402597404),
    ([[3, 0, 1, 1], [0, 2, 1, 0], [1, 1, 0, 2]], "g2", ModelSpec(family=INDEPENDENCE),
     None, 0.2753246753246754),
    ([[3, 0, 1, 1], [0, 2, 1, 0], [1, 1, 0, 2]], "chi2",
     ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2),)),
     None, 0.20714285714285718),
    ([[3, 0, 1, 1], [0, 2, 1, 0], [1, 1, 0, 2]], "g2",
     ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2),)),
     None, 0.20408163265306123),
    ([[2, 1, 0], [1, 0, 2], [0, 2, 1]], "llr", ModelSpec(family=INDEPENDENCE),
     ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),)),
     0.2500000000000001),
]


@pytest.mark.parametrize("rows,stat,model,alt,expected", PINNED,
                         ids=[f"{p[1]}-{p[2].family}" for p in PINNED])
def test_exact_pvalues_are_pinned(rows, stat, model, alt, expected):
    table = Table.from_rows(rows)
    _, cfg = stat_of(model, table)
    assert exact_pvalue(table, cfg, make_tracker(stat, table, model, alt=alt)) == expected


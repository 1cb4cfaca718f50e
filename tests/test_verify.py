"""Exhaustive sweeps: connectivity, indispensability, and the suite drivers."""

import math

import numpy as np
import pytest

from markovfiber.fiber import enumerate_fiber, is_connected
from markovfiber.models import (
    CHANGE_POINT,
    INDEPENDENCE,
    OWN_BLOCKS,
    ModelSpec,
)
from markovfiber.moves import basis_for_model
from markovfiber.tables import Rectangle, build_configuration
from markovfiber.verify import (
    change_point_models,
    change_point_suite,
    common_blocks_suite,
    connectivity_range,
    connectivity_sweep,
    indispensability_sweep,
    own_blocks_suite,
)

OWN_3X3 = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 2, 3, 4),
                    col_bounds=(1, 2, 3, 4))


def test_sweep_enumerates_every_table():
    rep = connectivity_sweep(ModelSpec(family=INDEPENDENCE), 2, 2, total=3)
    assert rep.n_tables == math.comb(4 + 3 - 1, 3)  # multisets of 4 cells


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
    rep = change_point_suite(max_dim=3, max_total=3, sample_raw=1, seed=0)
    assert rep.ok
    assert not rep.connectivity_failures and not rep.indispensability_failures
    assert rep.models_checked <= rep.models_raw
    assert rep.raw_spot_checks == 4  # one per grid: 2x2, 2x3, 3x2, 3x3
    assert rep.n_fibers_checked > 0
    d = rep.to_dict()
    assert d["suite"] == "change-point" and d["ok"] is True


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

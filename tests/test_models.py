"""Model families: validation, cell geometry, nesting, serialization."""

import pytest

from markovfiber.models import (
    CHANGE_POINT,
    COMMON_BLOCKS,
    GENERAL_BLOCKS,
    INDEPENDENCE,
    OWN_BLOCKS,
    ModelError,
    ModelSpec,
    is_nested,
    load_model,
    model_from_dict,
    model_to_dict,
    n_blocks,
    require_valid,
    save_model,
    terms,
    validate,
)
import numpy as np

from markovfiber.tables import Rectangle, build_configuration
from markovfiber.datasets import gilby_model, victoria_models
from reference_models import cell_block, cell_stratum, term_membership


def test_gilby_spec_is_valid():
    assert validate(gilby_model(), 8, 4) == []


def test_victoria_specs_are_valid():
    common, own = victoria_models()
    assert validate(common, 12, 12) == []
    assert validate(own, 12, 12) == []
    assert n_blocks(common) == 4


def test_change_point_strict_inclusion_required():
    equal = ModelSpec(family=CHANGE_POINT,
                      rectangles=(Rectangle(1, 2, 1, 2), Rectangle(1, 2, 1, 2)))
    assert any("strict" in v for v in validate(equal, 4, 4))
    not_nested = ModelSpec(family=CHANGE_POINT,
                           rectangles=(Rectangle(1, 2, 1, 2), Rectangle(2, 3, 2, 3)))
    assert validate(not_nested, 4, 4) != []
    with pytest.raises(ModelError):
        require_valid(equal, 4, 4)


def test_change_point_outermost_must_leave_room():
    full = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 3, 1, 3),))
    assert validate(full, 3, 3) != []
    off_grid = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 5),))
    assert any("exceeds" in v for v in validate(off_grid, 4, 4))


def test_block_bounds_validation():
    assert validate(ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 4),
                              col_bounds=(1, 3, 5)), 4, 4) != []  # rows stop short
    assert validate(ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 3, 5),
                              col_bounds=(1, 3, 5)), 4, 4) != []  # not increasing
    assert validate(ModelSpec(family=OWN_BLOCKS, row_bounds=(2, 3, 5),
                              col_bounds=(1, 3, 5)), 4, 4) != []  # must start at 1
    ok = ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 2, 5))
    assert validate(ok, 4, 4) == []


def test_general_blocks_validation():
    overlap = ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 2, 3),
                        col_bounds=(1, 2, 3), groups=((1, 2), (2,)))
    assert any("disjoint" in v for v in validate(overlap, 3, 3))
    # general bounds may stop short of the grid edge
    short = ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 2, 3),
                      col_bounds=(1, 2, 3), groups=((1,), (2,)))
    assert validate(short, 4, 4) == []
    out_of_range = ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 2, 3),
                             col_bounds=(1, 2, 3), groups=((3,),))
    assert validate(out_of_range, 3, 3) != []


def test_independence_carries_no_geometry():
    assert validate(ModelSpec(family=INDEPENDENCE), 3, 3) == []
    junk = ModelSpec(family=INDEPENDENCE, rectangles=(Rectangle(1, 2, 1, 2),))
    assert validate(junk, 3, 3) != []


def test_cell_stratum_partitions_the_grid():
    model = gilby_model()
    assert cell_stratum(model, 8, 4, 2, 1) == 1
    assert cell_stratum(model, 8, 4, 5, 2) == 2
    assert cell_stratum(model, 8, 4, 8, 4) == 3
    counts = {1: 0, 2: 0, 3: 0}
    for i in range(1, 9):
        for j in range(1, 5):
            counts[cell_stratum(model, 8, 4, i, j)] += 1
    assert counts == {1: 3, 2: 7, 3: 22}
    assert sum(counts.values()) == 32
    with pytest.raises(ModelError):
        cell_stratum(model, 8, 4, 9, 1)
    with pytest.raises(ModelError):
        cell_stratum(ModelSpec(family=INDEPENDENCE), 3, 3, 1, 1)


def test_cell_block_on_the_seasonal_grid():
    common, _ = victoria_models()
    assert cell_block(common, 12, 12, 4, 7) == (2, 3)
    assert cell_block(common, 12, 12, 1, 1) == (1, 1)
    diagonal = terms(common, 12, 12).reshape(12, 12)
    assert diagonal[0, 0] == 1 and diagonal[3, 6] == 0
    with pytest.raises(ModelError):
        cell_block(common, 12, 12, 0, 1)


def test_cell_block_uncovered_region_is_none():
    model = ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 2, 3),
                      col_bounds=(1, 2, 3), groups=((1,), (2,)))
    assert cell_block(model, 4, 4, 4, 1) is None
    assert cell_block(model, 4, 4, 1, 1) == (1, 1)


def test_diagonal_blocks_tile_s():
    common, own = victoria_models()
    blocks = terms(own, 12, 12)
    # four 3x3 blocks, disjoint, whose union is the common term S
    assert blocks.sum(axis=1).tolist() == [9] * 4
    assert (blocks.sum(axis=0) == terms(common, 12, 12)[0]).all()
    for k in range(4):
        assert blocks[k].reshape(12, 12)[3 * k:3 * k + 3, 3 * k:3 * k + 3].all()
    # the off-diagonal block I_12 lies outside S
    assert not blocks.reshape(4, 12, 12)[:, 0:3, 3:6].any()


def test_terms_order_and_shape():
    common, own = victoria_models()
    t_own = terms(own, 12, 12)
    assert t_own.shape == (4, 144) and t_own.dtype == np.uint8
    assert [int(np.flatnonzero(row)[0]) for row in t_own] == [0, 39, 78, 117]  # in block order
    assert terms(common, 12, 12).shape == (1, 144)
    assert terms(ModelSpec(family=INDEPENDENCE), 3, 4).shape == (0, 12)
    grouped = ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 5, 9, 13),
                        col_bounds=(1, 5, 9, 13), groups=((1, 3), (2,)))
    t_gen = terms(grouped, 12, 12).reshape(2, 12, 12)
    first = np.zeros((12, 12), dtype=np.uint8)
    first[0:4, 0:4] = first[8:12, 8:12] = 1
    assert (t_gen[0] == first).all()
    assert t_gen[1].sum() == 16 and t_gen[1][4:8, 4:8].all()


def _cp(*rects):
    return ModelSpec(family=CHANGE_POINT, rectangles=tuple(Rectangle(*r) for r in rects))


def _bl(family, rows, cols, groups=()):
    return ModelSpec(family=family, row_bounds=rows, col_bounds=cols, groups=groups)


# (name, model, R, C): every family, nested and stacked rectangles, blocks
# of unequal widths, and general blocks with leftover rows and columns and
# groups of several blocks
TERM_CASES = [
    ("independence", ModelSpec(family=INDEPENDENCE), 3, 4),
    ("gilby", gilby_model(), 8, 4),
    ("cp-nested-three", _cp((2, 3, 2, 2), (2, 4, 1, 3), (1, 5, 1, 4)), 6, 5),
    ("cp-strip", _cp((3, 3, 1, 4)), 4, 4),
    ("victoria-common", victoria_models()[0], 12, 12),
    ("victoria-own", victoria_models()[1], 12, 12),
    ("own-unequal", _bl(OWN_BLOCKS, (1, 2, 5, 6), (1, 4, 5, 7)), 5, 6),
    ("own-one-by-one", _bl(OWN_BLOCKS, (1, 2, 3, 4), (1, 2, 3, 4)), 3, 3),
    ("common-unequal", _bl(COMMON_BLOCKS, (1, 3, 4, 8), (1, 2, 5, 6)), 7, 5),
    ("general-leftover-rows", _bl(GENERAL_BLOCKS, (1, 3, 4), (1, 2, 6), ((1, 2),)), 6, 5),
    ("general-leftover-cols", _bl(GENERAL_BLOCKS, (1, 2, 4, 5), (1, 3, 4, 6), ((1, 3), (2,))),
     4, 7),
    ("general-leftover-both", _bl(GENERAL_BLOCKS, (1, 2, 3, 5), (1, 2, 4, 5),
                                  ((3,), (2, 1))), 6, 6),
]


@pytest.mark.parametrize("name,model,R,C", TERM_CASES, ids=[c[0] for c in TERM_CASES])
def test_terms_match_the_cell_oracle(name, model, R, C):
    want = term_membership(model, R, C)
    assert terms(model, R, C).tolist() == want
    assert build_configuration(model, R, C).matrix[R + C:].tolist() == want


def test_nesting_common_inside_own():
    common, own = victoria_models()
    assert is_nested(common, own, 12, 12)
    assert not is_nested(own, common, 12, 12)


def test_independence_nests_inside_everything():
    indep = ModelSpec(family=INDEPENDENCE)
    assert is_nested(indep, gilby_model(), 8, 4)
    common, own = victoria_models()
    assert is_nested(indep, common, 12, 12)
    assert is_nested(indep, own, 12, 12)


def test_incomparable_change_point_specs():
    a = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 1),))
    b = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 1, 1, 2),))
    assert not is_nested(a, b, 3, 3)
    assert not is_nested(b, a, 3, 3)
    # adding an outer rectangle refines the model
    fine = ModelSpec(family=CHANGE_POINT,
                     rectangles=(Rectangle(1, 2, 1, 1), Rectangle(1, 3, 1, 2)))
    assert is_nested(a, fine, 4, 3)


def test_two_block_own_and_common_coincide():
    # with N = 2 each block sum is a rational function of margins, total and
    # the shared diagonal sum: b11 = (rows(1..2) + cols(1..2) + S - total)/2,
    # so the two families span the same row space
    own = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5))
    merged = ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 3, 5),
                       col_bounds=(1, 3, 5), groups=((1, 2),))
    assert is_nested(merged, own, 4, 4)
    assert is_nested(own, merged, 4, 4)


def test_three_block_own_is_strictly_finer():
    own = ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5, 7), col_bounds=(1, 3, 5, 7))
    common = ModelSpec(family=COMMON_BLOCKS, row_bounds=(1, 3, 5, 7), col_bounds=(1, 3, 5, 7))
    assert is_nested(common, own, 6, 6)
    assert not is_nested(own, common, 6, 6)


NESTING_CASES = [
    # inner, outer, grid, verdict, inner rows ranked with the outer ones
    (*victoria_models(), (12, 12), True, 1),  # the common diagonal sum
    (ModelSpec(family=INDEPENDENCE), gilby_model(), (8, 4), True, 0),
    # the inner rectangle lies outside the outer span
    (ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(2, 3, 2, 3),)),
     ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2), Rectangle(1, 3, 1, 3))),
     (4, 4), False, 1),
    (ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5),
               groups=((1, 2),)),
     ModelSpec(family=OWN_BLOCKS, row_bounds=(1, 3, 5), col_bounds=(1, 3, 5)), (4, 4), True, 1),
]


@pytest.mark.parametrize("inner,outer,grid,verdict,extra", NESTING_CASES,
                         ids=["victoria", "independence-in-gilby", "outside-the-span",
                              "two-blocks"])
def test_nesting_ranks_only_the_inner_rows_the_outer_lack(monkeypatch, inner, outer, grid,
                                                          verdict, extra):
    import markovfiber.models as models
    from markovfiber.tables import build_configuration, row_space_contains

    ranked = []

    def spy(outer_rows, inner_rows):
        ranked.append(len(inner_rows))
        return row_space_contains(outer_rows, inner_rows)

    monkeypatch.setattr(models, "row_space_contains", spy)
    assert is_nested(inner, outer, *grid) == verdict
    assert ranked == ([extra] if extra else [])
    # the verdict of the full stack
    full = row_space_contains(build_configuration(outer, *grid).matrix.tolist(),
                              build_configuration(inner, *grid).matrix.tolist())
    assert full == verdict


def test_dict_round_trip():
    for model in (gilby_model(), *victoria_models(),
                  ModelSpec(family=GENERAL_BLOCKS, row_bounds=(1, 2, 3),
                            col_bounds=(1, 2, 3), groups=((1,), (2,)))):
        assert model_from_dict(model_to_dict(model)) == model


def test_file_round_trip(tmp_path):
    path = tmp_path / "model.json"
    save_model(gilby_model(), path)
    assert load_model(path) == gilby_model()
    path.write_text('{"family": "no-such-family"}')
    with pytest.raises(ModelError):
        load_model(path)

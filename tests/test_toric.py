"""Packed binomial generators, the lex order, division, and S-pair certification."""

from itertools import combinations

import numpy as np
import pytest

from markovfiber.datasets import gilby_model
from markovfiber.models import CHANGE_POINT, INDEPENDENCE, ModelError, ModelSpec
from markovfiber.moves import enumerate_basis
from markovfiber.tables import Rectangle
from markovfiber.toric import (
    MAX_DIVISION_STEPS,
    ToricError,
    _divide_packed,
    _guard,
    _order,
    _s_polynomial_packed,
    canonicalize,
    generators,
    verify_grobner,
)
from markovfiber.verify import change_point_models
from reference_toric import (as_poly, divide, lex_key, s_poly_reduces, s_polynomial, unpack,
                             unpacked)

DOUBLY_STRICT = ModelSpec(
    family=CHANGE_POINT,
    rectangles=(Rectangle(1, 2, 1, 2), Rectangle(1, 3, 1, 3)),
)


def _criterion_8_classes():
    """The 208 relabeling classes of criterion 8, canonicalized, with grids."""
    classes = {}
    for R in range(2, 5):
        for C in range(2, 5):
            for model in change_point_models(R, C):
                canon = canonicalize(model, R, C)[0]
                classes.setdefault((R, C, canon.rectangles), (canon, R, C))
    return list(classes.values())


CRITERION_8_CLASSES = _criterion_8_classes()


def test_lex_order_direction():
    names = _order(3, 3).split(" > ")
    assert names[0] == "x_33" and names[-1] == "x_11"
    assert "..." in names
    assert _order(10, 2) == "x_10,2 > x_10,1 > ... > x_1,1"
    # x_12 (flat 1) beats x_11 (flat 0)
    a = (0, 1, 0, 0, 0, 0, 0, 0, 0)
    b = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert lex_key(a) > lex_key(b)
    # later flats dominate earlier ones regardless of multiplicity
    c = (0, 0, 0, 0, 0, 0, 0, 0, 1)
    d = (3, 3, 3, 3, 3, 3, 3, 3, 0)
    assert lex_key(c) > lex_key(d)


def test_binomial_as_poly():
    g = ((1, 0, 0, 1), (0, 1, 1, 0))
    assert as_poly(g) == {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}


def test_independence_2x2_single_generator():
    gens, row_perm, col_perm = generators(ModelSpec(family=INDEPENDENCE), 2, 2)
    assert gens == [(0x1001, 0x0110)]  # x_11 x_22 - x_12 x_21
    assert unpacked(gens, 4) == [((1, 0, 0, 1), (0, 1, 1, 0))]
    assert row_perm == (1, 2) and col_perm == (1, 2)


def _packed_basic_move(move, C):
    """A Type I move as the packed (x_ik x_jl, x_il x_jk), rows i < j and
    columns k < l; the move must be +-(lead - trail)."""
    (i, k, c), (_, l, c_il), (j, _, c_jk), (_, _, c_jl) = move.entries
    assert c == c_jl == -c_il == -c_jk
    var = [1 << 4 * ((r - 1) * C + (s - 1)) for r, s in ((i, k), (j, l), (i, l), (j, k))]
    return var[0] | var[1], var[2] | var[3]


def test_generators_pair_with_unsigned_basic_moves():
    """On every class of criterion 8 and on Gilby, the generators are the
    basis's Type I moves, each once, lead first."""
    assert len(CRITERION_8_CLASSES) == 208
    for model, R, C in CRITERION_8_CLASSES + [(gilby_model(), 8, 4)]:
        gens, _, _ = generators(model, R, C)
        canon = canonicalize(model, R, C)[0]
        moves = [_packed_basic_move(mv, C) for mv in enumerate_basis(canon, R, C)
                 if mv.mtype == "I"]
        assert len(set(gens)) == len(gens) == len(moves)
        assert set(gens) == set(moves), (R, C, canon)
        assert all(lead > trail for lead, trail in gens)


def test_canonicalize_keeps_anchored_models():
    model, row_perm, col_perm = canonicalize(DOUBLY_STRICT, 4, 4)
    assert model == DOUBLY_STRICT
    assert row_perm == (1, 2, 3, 4) and col_perm == (1, 2, 3, 4)


def test_canonicalize_moves_rectangles_to_the_corner():
    offset = ModelSpec(
        family=CHANGE_POINT,
        rectangles=(Rectangle(2, 3, 2, 3), Rectangle(2, 4, 1, 3)),
    )
    model, row_perm, col_perm = canonicalize(offset, 4, 4)
    assert model.rectangles[0] == Rectangle(1, 2, 1, 2)
    assert model.rectangles[1] == Rectangle(1, 3, 1, 3)
    assert sorted(row_perm) == [1, 2, 3, 4]
    assert sorted(col_perm) == [1, 2, 3, 4]
    # row_perm[new-1] = old row index: new rows 1..2 are old rows 2..3
    assert set(row_perm[:2]) == {2, 3}
    with pytest.raises(ModelError):
        canonicalize(ModelSpec(family="own-blocks", row_bounds=(1, 3, 5),
                               col_bounds=(1, 3, 5)), 4, 4)


def _independence_3x3():
    return unpacked(generators(ModelSpec(family=INDEPENDENCE), 3, 3)[0], 9)


def test_s_polynomial_cancels_the_lcm_terms():
    gens = _independence_3x3()
    g1, g2 = gens[0], gens[1]
    spoly = s_polynomial(g1, g2)
    assert len(spoly) <= 2
    assert g1[0] not in spoly  # the leads cancelled
    assert all(coef in (-1, 1) for coef in spoly.values())


def test_division_by_a_complete_set():
    gens = _independence_3x3()
    # any generator trivially reduces to zero against itself
    assert divide(as_poly(gens[0]), gens)
    # an irreducible monomial does not
    assert not divide({(1, 0, 0, 0, 0, 0, 0, 0, 0): 1}, gens)


def test_division_step_bound():
    gens = _independence_3x3()
    with pytest.raises(ToricError):
        divide(as_poly(gens[0]), gens, max_steps=0)


def test_s_pair_needing_a_third_generator():
    gens = _independence_3x3()
    g1, g2 = gens[0], gens[1]
    assert s_poly_reduces(g1, g2, gens)
    # dropping the rest of the set breaks the reduction: a genuine failure
    # is detectable, so the certificates below are not vacuous
    assert not s_poly_reduces(g1, g2, [g1, g2])


@pytest.mark.parametrize("model,R,C,n_gens", [
    (ModelSpec(family=INDEPENDENCE), 2, 2, 1),
    (ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2),)), 3, 3, 5),
    (DOUBLY_STRICT, 4, 4, 15),
    (gilby_model(), 8, 4, 81),
])
def test_generator_counts(model, R, C, n_gens):
    gens, _, _ = generators(model, R, C)
    assert len(gens) == n_gens


def test_verify_grobner_doubly_strict():
    report = verify_grobner(DOUBLY_STRICT, 4, 4)
    assert report.certified
    assert report.all_reduced and report.initial_square_free
    assert report.n_generators == 15
    assert report.pairs_checked == 15 * 14 // 2
    assert sum(report.pairs_by_criterion.values()) == report.pairs_checked
    assert report.pairs_by_criterion["product"] > 0
    d = report.to_dict()
    assert d["certified"] is True
    assert d["order"].startswith("x_44 > ")


def test_verify_grobner_off_anchor():
    offset = ModelSpec(
        family=CHANGE_POINT,
        rectangles=(Rectangle(2, 3, 2, 3), Rectangle(2, 4, 1, 3)),
    )
    report = verify_grobner(offset, 4, 4)
    assert report.certified
    assert sorted(report.row_perm) == [1, 2, 3, 4]


def test_verify_grobner_respects_the_size_bound():
    model = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2),))
    with pytest.raises(ToricError):
        verify_grobner(model, 6, 6)
    report = verify_grobner(model, 5, 5, max_dim=5)
    assert report.certified


def test_packed_order_is_the_lex_order():
    rng = np.random.default_rng(1)
    mons = [tuple(int(e) for e in rng.integers(0, 5, size=9)) for _ in range(200)]
    packed = [sum(e << 4 * k for k, e in enumerate(mon)) for mon in mons]
    assert [unpack(m, 9) for m in packed] == mons
    assert [unpack(m, 9) for m in sorted(packed)] == sorted(mons, key=lex_key)


def test_packed_division_agrees_with_tuple_division():
    """Every S-pair of every 4x4 class of criterion 8, coprime leads
    included: the same S-polynomial and the same verdict."""
    guard = _guard(16)
    n_pairs = 0
    for model, R, C in CRITERION_8_CLASSES:
        if (R, C) != (4, 4):
            continue
        packed, _, _ = generators(model, 4, 4)
        gens = unpacked(packed, 16)
        for (p1, g1), (p2, g2) in combinations(zip(packed, gens), 2):
            spoly = _s_polynomial_packed(*p1, *p2, guard)
            assert {unpack(m, 16): c for m, c in spoly.items()} == s_polynomial(g1, g2)
            assert (_divide_packed(spoly, packed, guard, MAX_DIVISION_STEPS)
                    == divide(s_polynomial(g1, g2), gens))
            n_pairs += 1
    assert n_pairs > 10_000
    # the non-basis pair of test_s_pair_needing_a_third_generator
    pair = generators(ModelSpec(family=INDEPENDENCE), 3, 3)[0][:2]
    g1, g2 = unpacked(pair, 9)
    guard = _guard(9)
    spoly = _s_polynomial_packed(*pair[0], *pair[1], guard)
    assert not _divide_packed(spoly, pair, guard, MAX_DIVISION_STEPS)
    assert not s_poly_reduces(g1, g2, [g1, g2])
    with pytest.raises(ToricError):
        _divide_packed(spoly, pair, guard, 0)


@pytest.mark.parametrize("model,R,C", [(DOUBLY_STRICT, 4, 4), (gilby_model(), 8, 4)])
def test_product_criterion_skips_only_reducing_pairs(model, R, C):
    gens = unpacked(generators(model, R, C)[0], R * C)
    skipped = [(g1, g2) for g1, g2 in combinations(gens, 2)
               if not any(a and b for a, b in zip(g1[0], g2[0]))]
    assert skipped
    assert all(s_poly_reduces(g1, g2, gens) for g1, g2 in skipped)
    report = verify_grobner(model, R, C, max_dim=max(R, C))
    assert report.certified
    assert report.pairs_by_criterion["product"] == len(skipped)
    assert report.pairs_checked == len(gens) * (len(gens) - 1) // 2

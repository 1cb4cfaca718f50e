"""Binomial generators, the lex order, division, and S-pair certification."""

import numpy as np
import pytest

from markovfiber.models import CHANGE_POINT, INDEPENDENCE, ModelError, ModelSpec
from markovfiber.tables import Rectangle, build_configuration
from itertools import combinations

from markovfiber.toric import (
    MAX_DIVISION_STEPS,
    Binomial,
    LexOrder,
    ToricError,
    _divide_packed,
    _pack,
    _s_polynomial_packed,
    canonicalize,
    divide,
    generators,
    s_poly_reduces,
    s_polynomial,
    verify_grobner,
)
from markovfiber.moves import basis_for_model
from markovfiber.datasets import gilby_model
from markovfiber.verify import change_point_models

DOUBLY_STRICT = ModelSpec(
    family=CHANGE_POINT,
    rectangles=(Rectangle(1, 2, 1, 2), Rectangle(1, 3, 1, 3)),
)


def test_lex_order_direction():
    order = LexOrder(3, 3)
    names = order.describe().split(" > ")
    assert names[0] == "x_33" and names[-1] == "x_11"
    assert "..." in names
    # x_12 (flat 1) beats x_11 (flat 0)
    a = (0, 1, 0, 0, 0, 0, 0, 0, 0)
    b = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert order.greater(a, b) and not order.greater(b, a)
    # later flats dominate earlier ones regardless of multiplicity
    c = (0, 0, 0, 0, 0, 0, 0, 0, 1)
    d = (3, 3, 3, 3, 3, 3, 3, 3, 0)
    assert order.greater(c, d)


def test_binomial_as_poly():
    g = Binomial(lead=(1, 0, 0, 1), trail=(0, 1, 1, 0))
    poly = g.as_poly()
    assert poly == {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}


def test_independence_2x2_single_generator():
    gens, order, row_perm, col_perm = generators(ModelSpec(family=INDEPENDENCE), 2, 2)
    assert len(gens) == 1
    g = gens[0]
    assert g.lead == (1, 0, 0, 1)   # x_11 x_22
    assert g.trail == (0, 1, 1, 0)  # x_12 x_21
    assert order.greater(g.lead, g.trail)
    assert row_perm == (1, 2) and col_perm == (1, 2)


def test_generators_pair_with_unsigned_basic_moves():
    model = ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2),))
    gens, order, _, _ = generators(model, 3, 3)
    basis = basis_for_model(model, 3, 3)
    assert len(gens) == len(basis) == 5
    cfg = build_configuration(model, 3, 3)
    A = cfg.matrix.astype(int)
    for g in gens:
        z = np.asarray(g.lead, dtype=int) - np.asarray(g.trail, dtype=int)
        assert (A @ z == 0).all()
        assert order.greater(g.lead, g.trail)
        assert max(g.lead) == 1  # square-free lead


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


def test_s_polynomial_cancels_the_lcm_terms():
    gens, order, _, _ = generators(ModelSpec(family=INDEPENDENCE), 3, 3)
    g1, g2 = gens[0], gens[1]
    spoly = s_polynomial(g1, g2)
    assert len(spoly) <= 2
    assert g1.lead not in spoly  # the leads cancelled
    assert all(coef in (-1, 1) for coef in spoly.values())


def test_division_by_a_complete_set():
    gens, order, _, _ = generators(ModelSpec(family=INDEPENDENCE), 3, 3)
    # any generator trivially reduces to zero against itself
    assert divide(gens[0].as_poly(), gens, order)
    # an irreducible monomial does not
    assert not divide({(1, 0, 0, 0, 0, 0, 0, 0, 0): 1}, gens, order)


def test_division_step_bound():
    gens, order, _, _ = generators(ModelSpec(family=INDEPENDENCE), 3, 3)
    with pytest.raises(ToricError):
        divide(gens[0].as_poly(), gens, order, max_steps=0)


def test_s_pair_needing_a_third_generator():
    gens, order, _, _ = generators(ModelSpec(family=INDEPENDENCE), 3, 3)
    g1, g2 = gens[0], gens[1]
    assert s_poly_reduces(g1, g2, gens, order)
    # dropping the rest of the set breaks the reduction: a genuine failure
    # is detectable, so the certificates below are not vacuous
    assert not s_poly_reduces(g1, g2, [g1, g2], order)


@pytest.mark.parametrize("model,R,C,n_gens", [
    (ModelSpec(family=INDEPENDENCE), 2, 2, 1),
    (ModelSpec(family=CHANGE_POINT, rectangles=(Rectangle(1, 2, 1, 2),)), 3, 3, 5),
    (DOUBLY_STRICT, 4, 4, 15),
    (gilby_model(), 8, 4, 81),
])
def test_generator_counts(model, R, C, n_gens):
    gens, _, _, _ = generators(model, R, C)
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


def _packed(gens):
    return [(_pack(g.lead), _pack(g.trail)) for g in gens]


def test_packed_order_is_the_lex_order():
    order = LexOrder(3, 3)
    rng = np.random.default_rng(1)
    mons = [tuple(int(e) for e in rng.integers(0, 5, size=9)) for _ in range(200)]
    assert sorted(mons, key=order.key) == sorted(mons, key=_pack)


def test_packed_division_agrees_with_tuple_division():
    """Every S-pair of every 4x4 class of criterion 8, coprime leads
    included: the same S-polynomial and the same verdict."""
    classes = {canonicalize(m, 4, 4)[0] for m in change_point_models(4, 4)}
    guard = _pack((8,) * 16)
    n_pairs = 0
    for model in classes:
        gens, order, _, _ = generators(model, 4, 4)
        packed = _packed(gens)
        for (p1, g1), (p2, g2) in combinations(zip(packed, gens), 2):
            spoly = _s_polynomial_packed(*p1, *p2, guard)
            assert spoly == {_pack(m): c for m, c in s_polynomial(g1, g2).items()}
            assert (_divide_packed(spoly, packed, guard, MAX_DIVISION_STEPS)
                    == divide(s_polynomial(g1, g2), gens, order))
            n_pairs += 1
    assert n_pairs > 10_000
    # the non-basis pair of test_s_pair_needing_a_third_generator
    gens, order, _, _ = generators(ModelSpec(family=INDEPENDENCE), 3, 3)
    g1, g2 = gens[0], gens[1]
    pair = _packed([g1, g2])
    guard = _pack((8,) * 9)
    spoly = _s_polynomial_packed(*pair[0], *pair[1], guard)
    assert not _divide_packed(spoly, pair, guard, MAX_DIVISION_STEPS)
    assert not s_poly_reduces(g1, g2, [g1, g2], order)
    with pytest.raises(ToricError):
        _divide_packed(spoly, pair, guard, 0)


@pytest.mark.parametrize("model,R,C", [(DOUBLY_STRICT, 4, 4), (gilby_model(), 8, 4)])
def test_product_criterion_skips_only_reducing_pairs(model, R, C):
    gens, order, _, _ = generators(model, R, C)
    skipped = [(g1, g2) for g1, g2 in combinations(gens, 2)
               if not any(a and b for a, b in zip(g1.lead, g2.lead))]
    assert skipped
    assert all(s_poly_reduces(g1, g2, gens, order) for g1, g2 in skipped)
    report = verify_grobner(model, R, C, max_dim=max(R, C))
    assert report.certified
    assert report.pairs_by_criterion["product"] == len(skipped)
    assert report.pairs_checked == len(gens) * (len(gens) - 1) // 2

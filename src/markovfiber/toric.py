"""Groebner-basis certification of the change-point move basis, at desk scale.

The degree-2 moves of a change-point model correspond to binomials
x_ik x_jl - x_il x_jk in K[x_11 .. x_RC].  Under the right lexicographic
order these binomials are a quadratic Groebner basis of the model's toric
ideal, with square-free leading terms; this module checks that claim
directly via Buchberger's criterion: every S-polynomial of a pair of
generators must divide to zero against the generator set.

The variable order is x_RC > x_{R,C-1} > ... > x_R1 > x_{R-1,C} > ... >
x_11: rows descend from R, columns descend within each row, so x_11 is the
smallest variable.  The certification needs the nested rectangles anchored
at the upper-left corner; ``canonicalize`` relabels rows and columns to
that form, and the report carries the permutations so results map back to
the original coordinates.  No claim is made under any other order.

Two things make the check cheap.  Buchberger's product criterion: when the
leads of two generators share no variable, their S-polynomial reduces to
zero against the pair itself, so the pair needs no division (Buchberger,
EUROSAM 1979); the leads here are square-free, so about two pairs in three
are skipped.  And the remaining divisions run on monomials packed into
Python ints, 4 bits per variable with the largest variable in the most
significant nibble.  Comparing two packed ints then compares the exponent
of x_RC first, then x_{R,C-1}, and so on down, which is exactly the lex
order; multiplying and dividing monomials become ``+`` and ``-``, and with
every exponent below 8 the top bit of each nibble is a guard bit that
tests divisibility and takes the lcm without a per-variable loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import models as _models
from .models import ModelSpec
from .tables import Rectangle, flat_index

__all__ = [
    "LexOrder",
    "Binomial",
    "ToricError",
    "canonicalize",
    "generators",
    "s_polynomial",
    "divide",
    "s_poly_reduces",
    "verify_grobner",
    "GrobnerReport",
]

MAX_DIVISION_STEPS = 10_000


class ToricError(RuntimeError):
    pass


class LexOrder:
    """Lexicographic order with x_11 smallest and x_RC largest.

    Exponent vectors are flat row-major, so reversing one lists exponents
    from the largest variable down; plain tuple comparison then decides.
    """

    def __init__(self, R: int, C: int) -> None:
        self.R = R
        self.C = C

    def key(self, mon: tuple[int, ...]):
        return tuple(reversed(mon))

    def greater(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return self.key(a) > self.key(b)

    def describe(self) -> str:
        names = [
            f"x_{i}{self.C - j}" if max(self.R, self.C) < 10 else f"x_{i},{self.C - j}"
            for i in range(self.R, self.R - 1, -1)
            for j in range(self.C)
        ]
        return " > ".join(names) + " > ... > " + (
            "x_11" if max(self.R, self.C) < 10 else "x_1,1"
        )


@dataclass(frozen=True)
class Binomial:
    """lead - trail with coefficients +1/-1; lead > trail in the active order."""

    lead: tuple[int, ...]
    trail: tuple[int, ...]

    def as_poly(self) -> dict[tuple[int, ...], int]:
        return {self.lead: 1, self.trail: -1}


def _mon(R: int, C: int, cells) -> tuple[int, ...]:
    out = [0] * (R * C)
    for i, j in cells:
        out[flat_index(i, j, C)] += 1
    return tuple(out)


def _mon_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mon_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mon_quot(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mon_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def canonicalize(model: ModelSpec, R: int, C: int) -> tuple[ModelSpec, tuple[int, ...], tuple[int, ...]]:
    """Relabel rows/columns so all nested rectangles share corner (1,1).

    Returns (model', row_perm, col_perm) where row_perm[new-1] = old index:
    rows of S_1 first, then the rows S_2 adds, and so on outward.  The
    independence model passes through unchanged.
    """
    _models.require_valid(model, R, C)
    if model.family == _models.INDEPENDENCE:
        return model, tuple(range(1, R + 1)), tuple(range(1, C + 1))
    if model.family != _models.CHANGE_POINT:
        raise _models.ModelError("canonicalization applies to change-point models")

    row_perm: list[int] = []
    col_perm: list[int] = []
    for rect in model.rectangles:
        for i in range(rect.a1, rect.a2 + 1):
            if i not in row_perm:
                row_perm.append(i)
        for j in range(rect.b1, rect.b2 + 1):
            if j not in col_perm:
                col_perm.append(j)
    for i in range(1, R + 1):
        if i not in row_perm:
            row_perm.append(i)
    for j in range(1, C + 1):
        if j not in col_perm:
            col_perm.append(j)

    rects = []
    for rect in model.rectangles:
        h = sum(1 for i in range(rect.a1, rect.a2 + 1))
        w = sum(1 for j in range(rect.b1, rect.b2 + 1))
        rects.append(Rectangle(1, h, 1, w))
    canon = ModelSpec(family=_models.CHANGE_POINT, rectangles=tuple(rects))
    _models.require_valid(canon, R, C)
    return canon, tuple(row_perm), tuple(col_perm)


def generators(model: ModelSpec, R: int, C: int):
    """Binomials of the canonicalized basic moves, leads asserted.

    Returns (generators, order, row_perm, col_perm).  One binomial per
    unordered basic move: for rows i<j and columns k<l whose corner strata
    balance, the monomial x_ik x_jl contains the order-largest variable
    x_jl, so it must lead; that is checked, not assumed.
    """
    canon, row_perm, col_perm = canonicalize(model, R, C)
    order = LexOrder(R, C)
    if canon.family == _models.INDEPENDENCE:
        strata = [[1] * (C + 1) for _ in range(R + 1)]
    else:
        strata = [[0] * (C + 1)] + [
            [0] + [_models.cell_stratum(canon, R, C, i, j) for j in range(1, C + 1)]
            for i in range(1, R + 1)
        ]
    gens: list[Binomial] = []
    for i, j in combinations(range(1, R + 1), 2):
        for k, l in combinations(range(1, C + 1), 2):
            if sorted((strata[i][k], strata[j][l])) != sorted((strata[i][l], strata[j][k])):
                continue
            diag = _mon(R, C, [(i, k), (j, l)])
            anti = _mon(R, C, [(i, l), (j, k)])
            if not order.greater(diag, anti):
                raise ToricError(
                    f"lead assertion failed for rows ({i},{j}) cols ({k},{l})"
                )
            gens.append(Binomial(lead=diag, trail=anti))
    return gens, order, row_perm, col_perm


def s_polynomial(g1: Binomial, g2: Binomial) -> dict[tuple[int, ...], int]:
    """S(g1, g2) = (lcm/lead1) g1 - (lcm/lead2) g2; the lcm terms cancel."""
    lcm = _mon_lcm(g1.lead, g2.lead)
    m1 = _mon_quot(lcm, g1.lead)
    m2 = _mon_quot(lcm, g2.lead)
    poly: dict[tuple[int, ...], int] = {}
    for mon, c in ((_mon_mul(m1, g1.trail), -1), (_mon_mul(m2, g2.trail), 1)):
        c0 = poly.get(mon, 0) + c
        if c0:
            poly[mon] = c0
        else:
            poly.pop(mon, None)
    return poly


def divide(poly: dict[tuple[int, ...], int], G: list[Binomial], order: LexOrder,
           max_steps: int = MAX_DIVISION_STEPS) -> bool:
    """Multivariate division; True iff the remainder is zero.

    Each step rewrites the order-largest term by the first generator whose
    lead divides it; a term no generator divides is a nonzero remainder
    term, which settles the answer immediately.
    """
    poly = dict(poly)
    steps = 0
    while poly:
        steps += 1
        if steps > max_steps:
            raise ToricError(f"division exceeded {max_steps} steps")
        mon = max(poly, key=order.key)
        coef = poly[mon]
        for g in G:
            if _mon_divides(g.lead, mon):
                q = _mon_quot(mon, g.lead)
                del poly[mon]
                t = _mon_mul(q, g.trail)
                c0 = poly.get(t, 0) + coef
                if c0:
                    poly[t] = c0
                else:
                    poly.pop(t, None)
                break
        else:
            return False
    return True


def s_poly_reduces(g1: Binomial, g2: Binomial, G: list[Binomial], order: LexOrder,
                   max_steps: int = MAX_DIVISION_STEPS) -> bool:
    return divide(s_polynomial(g1, g2), G, order, max_steps=max_steps)


def _pack(mon: tuple[int, ...]) -> int:
    """Exponent vector -> int, variable k (flat index) in nibble k."""
    return sum(e << (4 * k) for k, e in enumerate(mon))


def _divide_packed(poly: dict[int, int], gens: list[tuple[int, int]],
                   guard: int, max_steps: int) -> bool:
    """``divide`` on packed monomials and (lead, trail) pairs: the same
    steps, by the same rule.

    ``guard`` has the top bit of every nibble set.  With every exponent
    below 8, ``((m | guard) - l) & guard == guard`` holds exactly when no
    exponent of l exceeds that of m: each nibble subtracts without a borrow
    and keeps its guard bit iff it did not go below 8.
    """
    poly = dict(poly)
    steps = 0
    while poly:
        steps += 1
        if steps > max_steps:
            raise ToricError(f"division exceeded {max_steps} steps")
        mon = max(poly)
        coef = poly.pop(mon)
        guarded = mon | guard
        for lead, trail in gens:
            if (guarded - lead) & guard == guard:
                t = mon - lead + trail
                c0 = poly.get(t, 0) + coef
                if c0:
                    poly[t] = c0
                else:
                    poly.pop(t, None)
                break
        else:
            return False
    return True


def _s_polynomial_packed(l1: int, t1: int, l2: int, t2: int, guard: int) -> dict[int, int]:
    """``s_polynomial`` on packed monomials; the lcm is a nibble-wise max."""
    ge = ((l1 | guard) - l2) & guard          # guard bits where l1 >= l2
    take = (ge >> 3) * 0xF                    # whole nibbles where l1 >= l2
    lcm = (l1 & take) | (l2 & ~take)
    a, b = lcm - l1 + t1, lcm - l2 + t2
    return {} if a == b else {a: -1, b: 1}


@dataclass(frozen=True)
class GrobnerReport:
    R: int
    C: int
    n_generators: int
    pairs_checked: int
    all_reduced: bool
    initial_square_free: bool
    order: str
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    # pairs settled by each criterion: "product" (coprime leads, no division
    # needed) and "division" (S-polynomial divided to zero, or the failure)
    pairs_by_criterion: dict[str, int]

    @property
    def certified(self) -> bool:
        return self.all_reduced and self.initial_square_free

    def to_dict(self) -> dict:
        return {
            "grid": [self.R, self.C],
            "n_generators": self.n_generators,
            "pairs_checked": self.pairs_checked,
            "pairs_by_criterion": dict(self.pairs_by_criterion),
            "all_reduced": self.all_reduced,
            "initial_square_free": self.initial_square_free,
            "certified": self.certified,
            "order": self.order,
            "row_perm": list(self.row_perm),
            "col_perm": list(self.col_perm),
        }


def verify_grobner(model: ModelSpec, R: int, C: int, max_dim: int = 5,
                   max_steps: int = MAX_DIVISION_STEPS) -> GrobnerReport:
    """Exhaustive Buchberger check: every S-pair of the binomial generators
    must reduce to zero, and every lead must be square-free.  Grids above
    ``max_dim`` on either side are refused; the check is quadratic in the
    generator count and meant for desk-scale certificates.

    Pairs with coprime leads pass by the product criterion; the rest are
    divided on packed monomials, which is exact here because every
    generator is a binomial of degree 2 with square-free terms, so every
    monomial met has degree at most 4 and every exponent stays below 8.
    """
    if R > max_dim or C > max_dim:
        raise ToricError(
            f"grid {R}x{C} exceeds the verification bound {max_dim}x{max_dim}"
        )
    gens, order, row_perm, col_perm = generators(model, R, C)
    sq_free = all(all(e <= 1 for e in g.lead) for g in gens)
    guard = _pack((8,) * (R * C))
    packed = [(_pack(g.lead), _pack(g.trail)) for g in gens]
    by_criterion = {"product": 0, "division": 0}
    pairs = 0
    all_ok = True
    for (l1, t1), (l2, t2) in combinations(packed, 2):
        pairs += 1
        if sq_free and not l1 & l2:
            by_criterion["product"] += 1
            continue
        by_criterion["division"] += 1
        spoly = _s_polynomial_packed(l1, t1, l2, t2, guard)
        if not _divide_packed(spoly, packed, guard, max_steps):
            all_ok = False
            break
    return GrobnerReport(
        R=R,
        C=C,
        n_generators=len(gens),
        pairs_checked=pairs,
        all_reduced=all_ok,
        initial_square_free=sq_free,
        order=order.describe(),
        row_perm=row_perm,
        col_perm=col_perm,
        pairs_by_criterion=by_criterion,
    )

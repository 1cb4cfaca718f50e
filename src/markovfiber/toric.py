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

A generator is kept when its four cells' columns of the configuration
balance on every term row (A z = 0, the rule every basis of the package
obeys), and it is built packed: monomials are Python ints, 4 bits per
variable with the largest variable in the most significant nibble.
Comparing two packed ints then compares the exponent of x_RC first, then
x_{R,C-1}, and so on down, which is exactly the lex order; multiplying and
dividing monomials become ``+`` and ``-``, and with every exponent below 8
the top bit of each nibble is a guard bit that tests divisibility and takes
the lcm without a per-variable loop.  Buchberger's product criterion makes
the check cheaper still: when the leads of two generators share no
variable, their S-polynomial reduces to zero against the pair itself, so
the pair needs no division (Buchberger, EUROSAM 1979); the leads here are
square-free, so about two pairs in three are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import models as _models
from .models import ModelSpec
from .tables import MarkovFiberError, Rectangle

__all__ = [
    "ToricError",
    "canonicalize",
    "generators",
    "verify_grobner",
    "GrobnerReport",
]

MAX_DIVISION_STEPS = 10_000


class ToricError(MarkovFiberError, RuntimeError):
    pass


def _order(R: int, C: int) -> str:
    """The lex order by its largest variables: x_RC > x_{R,C-1} > ... > x_11."""
    sep = "," if max(R, C) >= 10 else ""
    return " > ".join(f"x_{R}{sep}{l}" for l in range(C, 0, -1)) + f" > ... > x_1{sep}1"


def _guard(n_vars: int) -> int:
    """The top bit of each of ``n_vars`` nibbles."""
    return int("8" * n_vars, 16)


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

    # the same shapes, nested in the same order on the same grid: valid
    # because the model is
    rects = tuple(Rectangle(1, r.a2 - r.a1 + 1, 1, r.b2 - r.b1 + 1)
                  for r in model.rectangles)
    canon = ModelSpec(family=_models.CHANGE_POINT, rectangles=rects)
    return canon, tuple(row_perm), tuple(col_perm)


def generators(model: ModelSpec, R: int, C: int):
    """Packed binomials of the canonicalized basic moves.

    Returns (pairs, row_perm, col_perm), one (lead, trail) pair per
    unordered basic move x_ik x_jl - x_il x_jk, rows i < j and columns
    k < l, whose four cells balance on every term of the canonical model
    (``models.terms``; the row and column sums always balance).  The lead
    x_ik x_jl holds x_jl, the largest of the four variables.  Variable x_ij is nibble (i-1)C + (j-1), its flat index.
    """
    canon, row_perm, col_perm = canonicalize(model, R, C)
    terms = _models.terms(canon, R, C).reshape(-1, R, C)
    pairs = []
    for i, j in combinations(range(R), 2):
        # unbalanced[k, l]: some term row tells x_ik x_jl from x_il x_jk
        unbalanced = (terms[:, i, :, None] + terms[:, j, None, :]
                      != terms[:, i, None, :] + terms[:, j, :, None]).any(axis=0)
        for k, l in combinations(range(C), 2):
            if not unbalanced[k, l]:
                pairs.append((1 << 4 * (i * C + k) | 1 << 4 * (j * C + l),
                              1 << 4 * (i * C + l) | 1 << 4 * (j * C + k)))
    return pairs, row_perm, col_perm


def _divide_packed(poly: dict[int, int], gens: list[tuple[int, int]],
                   guard: int, max_steps: int) -> bool:
    """Multivariate division of a packed polynomial by packed (lead, trail)
    binomials; True iff the remainder is zero.  Each step rewrites the
    largest term by the first generator whose lead divides it; a term no
    generator divides is a nonzero remainder term, which settles the answer.

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
    """S(g1, g2) = (lcm/l1) g1 - (lcm/l2) g2 on packed monomials, whose lcm
    terms cancel; the lcm is a nibble-wise max."""
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


def verify_grobner(model: ModelSpec, R: int, C: int, max_dim: int = 5) -> GrobnerReport:
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
    gens, row_perm, col_perm = generators(model, R, C)
    guard = _guard(R * C)
    high = guard | guard >> 1 | guard >> 2  # the bits of every nibble above 1
    sq_free = not any(lead & high for lead, _ in gens)
    by_criterion = {"product": 0, "division": 0}
    pairs = 0
    all_ok = True
    for (l1, t1), (l2, t2) in combinations(gens, 2):
        pairs += 1
        if sq_free and not l1 & l2:
            by_criterion["product"] += 1
            continue
        by_criterion["division"] += 1
        spoly = _s_polynomial_packed(l1, t1, l2, t2, guard)
        if not _divide_packed(spoly, gens, guard, MAX_DIVISION_STEPS):
            all_ok = False
            break
    return GrobnerReport(
        R=R,
        C=C,
        n_generators=len(gens),
        pairs_checked=pairs,
        all_reduced=all_ok,
        initial_square_free=sq_free,
        order=_order(R, C),
        row_perm=row_perm,
        col_perm=col_perm,
        pairs_by_criterion=by_criterion,
    )
